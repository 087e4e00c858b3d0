// Package testonly is the golden fixture for the testonly analyzer: an
// exported declaration needs a reference from a non-test file.
// testonly_test.go calls everything here, which keeps nothing alive.
package testonly

import "fmt"

// Helper is called only from tests.
func Helper() int { return 1 } // want `testonly\.Helper is exported but only tests reference it`

// Used is called by describe, which is production code.
func Used() int { return 2 }

// Celsius is named by describe, so the type is used.
type Celsius float64

// String satisfies fmt.Stringer: fmt calls it dynamically.
func (c Celsius) String() string { return fmt.Sprintf("%.1f°C", float64(c)) }

// Kelvin satisfies no interface, and only tests call it.
func (c Celsius) Kelvin() float64 { return float64(c) + 273.15 } // want `testonly\.Celsius\.Kelvin is exported`

// Limit, Table and Unused are referenced only by tests; Unused's field is
// not reported.
const Limit = 3 // want `testonly\.Limit is exported`

var Table = []int{1, 2} // want `testonly\.Table is exported`

type Unused struct { // want `testonly\.Unused is exported`
	Field int
}

// Hook is what another package's tests need.
//
//qosrma:allow(testonly) the fixture's callers are other packages' tests
func Hook() {}

// Unreasoned's trailing allow has no reason, so it suppresses nothing
// and is itself a finding.
func Unreasoned() {} /* want `malformed qosrma:allow comment` `testonly\.Unreasoned is exported` */ //qosrma:allow(testonly)

func describe() string { return fmt.Sprint(Used(), Celsius(20)) }

var _ = describe
