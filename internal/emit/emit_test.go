package emit

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// point is a small fixture row.
type point struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

func (point) CSVHeader() []string { return []string{"name", "value"} }

func (p point) CSVRecord() []string {
	return []string{p.Name, strconv.FormatFloat(p.Value, 'g', -1, 64)}
}

// TestEmitters streams each row set in each format name and checks the
// bytes visible after every Emit (rows are flushed as they are emitted)
// and after Close.
func TestEmitters(t *testing.T) {
	two := []point{{"a", 1.5}, {"b,c", -2}}
	cases := []struct {
		format string
		rows   []point
		after  []string // output after each Emit
		final  string   // output after Close
	}{
		{"csv", nil, nil, "name,value\n"},
		{"CSV", two,
			[]string{"name,value\na,1.5\n", "name,value\na,1.5\n\"b,c\",-2\n"},
			"name,value\na,1.5\n\"b,c\",-2\n"},
		{"json", nil, nil, ""},
		{"Json", two,
			[]string{`{"name":"a","value":1.5}` + "\n", `{"name":"a","value":1.5}` + "\n" + `{"name":"b,c","value":-2}` + "\n"},
			`{"name":"a","value":1.5}` + "\n" + `{"name":"b,c","value":-2}` + "\n"},
		{"JSONL", two[:1], []string{`{"name":"a","value":1.5}` + "\n"}, `{"name":"a","value":1.5}` + "\n"},
		{"ndJSON", two[1:], []string{`{"name":"b,c","value":-2}` + "\n"}, `{"name":"b,c","value":-2}` + "\n"},
	}
	for _, c := range cases {
		t.Run(c.format+"/"+strconv.Itoa(len(c.rows)), func(t *testing.T) {
			var buf bytes.Buffer
			em, err := New[point](c.format, &buf)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range c.rows {
				if err := em.Emit(r); err != nil {
					t.Fatal(err)
				}
				if got := buf.String(); got != c.after[i] {
					t.Fatalf("after row %d: %q, want %q", i, got, c.after[i])
				}
			}
			if err := em.Close(); err != nil {
				t.Fatal(err)
			}
			if got := buf.String(); got != c.final {
				t.Fatalf("after Close: %q, want %q", got, c.final)
			}
			// A second Close writes no second header.
			if err := em.Close(); err != nil || buf.String() != c.final {
				t.Fatalf("second Close changed the output to %q (err %v)", buf.String(), err)
			}

			var batch bytes.Buffer
			if err := Write(c.format, &batch, c.rows); err != nil {
				t.Fatal(err)
			}
			if batch.String() != c.final {
				t.Fatalf("Write: %q, want the streamed %q", batch.String(), c.final)
			}
		})
	}
}

func TestParse(t *testing.T) {
	for _, c := range []struct {
		name string
		want Format
		mime string
	}{
		{"csv", CSV, "text/csv"},
		{"Csv", CSV, "text/csv"},
		{"json", JSON, "application/json"},
		{"JSONL", JSON, "application/json"},
		{"NdJson", JSON, "application/json"},
	} {
		f, err := Parse(c.name)
		if err != nil || f != c.want || f.ContentType() != c.mime {
			t.Errorf("Parse(%q) = %v, %v (%s), want %v (%s)", c.name, f, err, f.ContentType(), c.want, c.mime)
		}
	}
	for _, name := range []string{"", "xml", "tsv", "json lines"} {
		_, err := Parse(name)
		if err == nil {
			t.Errorf("Parse(%q) accepted an unknown format", name)
			continue
		}
		want := "unknown format " + strconv.Quote(name) + " (want csv or json)"
		if err.Error() != want {
			t.Errorf("Parse(%q) error %q, want %q", name, err, want)
		}
		if _, err := New[point](name, nil); err == nil {
			t.Errorf("New(%q) accepted an unknown format", name)
		}
		if err := Write[point](name, nil, nil); err == nil || !strings.Contains(err.Error(), "unknown format") {
			t.Errorf("Write(%q) error %v", name, err)
		}
	}
}
