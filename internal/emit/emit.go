// Package emit streams result rows as CSV or as JSON lines. The sweep
// engine's per-point rows, the cluster engine's per-job rows and the
// service's sweep-job results all go through it, so the format names and
// the streaming rules live in one place.
package emit

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Row is a record that renders itself as one CSV line. CSVHeader must not
// depend on the receiver: it is also called on the zero value.
type Row interface {
	CSVHeader() []string
	CSVRecord() []string
}

// Emitter receives rows in the order the producer settles them. It need
// not be safe for concurrent use: the engines serialize Emit calls.
type Emitter[R Row] interface {
	Emit(R) error
	// Close flushes any buffered output. The engines do not call it; the
	// owner of the underlying writer does.
	Close() error
}

// Format is a parsed format name.
type Format int

// The formats New accepts.
const (
	CSV Format = iota
	JSON
)

// Parse resolves a format name in any letter case: "csv", or "json",
// "jsonl" or "ndjson" for JSON lines.
func Parse(name string) (Format, error) {
	switch strings.ToLower(name) {
	case "csv":
		return CSV, nil
	case "json", "jsonl", "ndjson":
		return JSON, nil
	}
	return 0, fmt.Errorf("unknown format %q (want csv or json)", name)
}

// ContentType is the format's HTTP media type.
func (f Format) ContentType() string {
	if f == JSON {
		return "application/json"
	}
	return "text/csv"
}

// New builds an emitter over w for the named format.
func New[R Row](format string, w io.Writer) (Emitter[R], error) {
	f, err := Parse(format)
	if err != nil {
		return nil, err
	}
	if f == JSON {
		return jsonEmitter[R]{json.NewEncoder(w)}, nil
	}
	// The header is buffered until the first row's flush, or Close when no
	// row comes, and a failed write resurfaces there.
	cw := csv.NewWriter(w)
	var zero R
	cw.Write(zero.CSVHeader()) //nolint:errcheck // reported by the next flush
	return csvEmitter[R]{cw}, nil
}

// Write emits the rows in the named format in one call.
func Write[R Row](format string, w io.Writer, rows []R) error {
	em, err := New[R](format, w)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := em.Emit(r); err != nil {
			return err
		}
	}
	return em.Close()
}

// csvEmitter flushes every record through to the writer, so rows already
// emitted survive an abort.
type csvEmitter[R Row] struct{ w *csv.Writer }

func (c csvEmitter[R]) Emit(r R) error {
	if err := c.w.Write(r.CSVRecord()); err != nil {
		return err
	}
	return c.Close()
}

func (c csvEmitter[R]) Close() error {
	c.w.Flush()
	return c.w.Error()
}

// jsonEmitter writes one JSON object per line.
type jsonEmitter[R Row] struct{ enc *json.Encoder }

func (j jsonEmitter[R]) Emit(r R) error { return j.enc.Encode(r) }

func (jsonEmitter[R]) Close() error { return nil }
