package netretry

import (
	"errors"
	"fmt"
	"io"
	"net/http"
)

// ErrBodyTooLarge reports a body whose declared or actual length exceeds
// the caller's limit. Handlers answer it with 413 (see BodyStatus).
var ErrBodyTooLarge = errors.New("body exceeds limit")

// ReadBody is the data plane's one body reader, for requests and responses
// alike: declared is the message's ContentLength, limit the most bytes the
// caller accepts, buf the caller's (typically pooled) buffer — reused when
// large enough, replaced by one exact-size allocation when not (nil simply
// allocates). The result aliases buf or its replacement.
//
// A declared length over limit fails with ErrBodyTooLarge before a byte is
// read; otherwise the body is read exactly once into declared bytes, and
// one that ends early is io.ErrUnexpectedEOF. Only an unknown length
// (declared < 0: chunked or compressed) falls back to a growing read into
// the same buffer, failing with ErrBodyTooLarge once it passes limit.
func ReadBody(body io.Reader, declared, limit int64, buf []byte) ([]byte, error) {
	if declared > limit {
		return nil, fmt.Errorf("%w: %d bytes declared, limit %d", ErrBodyTooLarge, declared, limit)
	}
	if declared >= 0 {
		if int64(cap(buf)) < declared {
			buf = make([]byte, declared)
		}
		buf = buf[:declared]
		if _, err := io.ReadFull(body, buf); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("body of %d declared bytes: %w", declared, err)
		}
		return buf, nil
	}
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > limit {
			return nil, fmt.Errorf("%w: unframed body passed the limit of %d bytes", ErrBodyTooLarge, limit)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// BodyStatus maps a ReadBody error to the status a handler answers with:
// 413 for an oversized body, 400 for one that could not be read.
func BodyStatus(err error) int {
	if errors.Is(err, ErrBodyTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}
