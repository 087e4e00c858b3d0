package testonly

import "testing"

func TestAll(t *testing.T) {
	_ = Helper() + Used() + Limit + Table[0] + Unused{}.Field
	_ = Celsius(1).Kelvin()
	_ = Celsius(1).String()
	Hook()
	Unreasoned()
}
