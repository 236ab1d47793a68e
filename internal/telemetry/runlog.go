package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// RunLog is a buffered JSONL (one JSON object per line) event stream,
// appended to by the training loop once per update step. Records are
// marshalled and written under a mutex, so concurrent appenders interleave
// whole lines, never bytes. Writes go through a bufio buffer; a record
// sits in memory until the buffer fills, Flush is called, or the log is
// closed — a crash can therefore lose the buffered tail or truncate the
// last line, which is why ScanRunLog tolerates a torn final record.
type RunLog struct {
	mu sync.Mutex
	f  *os.File
	bw *bufio.Writer
}

// CreateRunLog opens (appending, creating if absent) the JSONL run log at
// path.
func CreateRunLog(path string) (*RunLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("telemetry: run log: %w", err)
	}
	return &RunLog{f: f, bw: bufio.NewWriterSize(f, 64<<10)}, nil
}

// Append marshals rec and writes it as one line.
func (l *RunLog) Append(rec any) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("telemetry: run log record: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("telemetry: run log is closed")
	}
	if _, err := l.bw.Write(data); err != nil {
		return err
	}
	if err := l.bw.WriteByte('\n'); err != nil {
		return err
	}
	return nil
}

// Flush pushes buffered records to the file.
func (l *RunLog) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	return l.bw.Flush()
}

// Close flushes, syncs and closes the log. Idempotent.
func (l *RunLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.bw.Flush()
	if serr := l.f.Sync(); err == nil {
		err = serr
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// ScanRunLog reads a JSONL stream, invoking fn with each record's raw
// bytes, and returns the number of intact records. A truncated final
// record — a line without its trailing newline, or a final line that is
// not valid JSON — is the signature of a crash mid-write and is silently
// dropped; an invalid record followed by further data is real corruption
// and is an error.
func ScanRunLog(r io.Reader, fn func(line json.RawMessage) error) (int, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	n := 0
	for lineNo := 1; ; lineNo++ {
		line, err := br.ReadBytes('\n')
		atEOF := err == io.EOF
		if err != nil && !atEOF {
			return n, fmt.Errorf("telemetry: run log read: %w", err)
		}
		complete := len(line) > 0 && line[len(line)-1] == '\n'
		line = bytes.TrimSuffix(line, []byte("\n"))
		if len(bytes.TrimSpace(line)) == 0 {
			if atEOF {
				return n, nil
			}
			continue
		}
		if !json.Valid(line) {
			if atEOF && !complete {
				// Torn tail from a crash mid-write: tolerated.
				return n, nil
			}
			if atEOF {
				// Complete but invalid final line: also the tail — a crash
				// between the payload write and a partially flushed buffer
				// can land here. Tolerated.
				return n, nil
			}
			return n, fmt.Errorf("telemetry: run log: corrupt record at line %d", lineNo)
		}
		if !complete && atEOF {
			// Valid JSON but no newline: could still be a prefix of a longer
			// record (e.g. "12" of "123"). Treat as torn tail.
			return n, nil
		}
		if fn != nil {
			if err := fn(json.RawMessage(line)); err != nil {
				return n, err
			}
		}
		n++
		if atEOF {
			return n, nil
		}
	}
}
