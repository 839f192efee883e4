// Package spdf implements the synthetic PDF-like document container and its
// fault-tolerant parser, standing in for AdaParse in the paper's pipeline.
//
// Real PDFs are object graphs with dictionaries and streams; AdaParse's job
// is to turn millions of them into {text, metadata JSON} with per-file error
// isolation at HPC scale. SPDF keeps that contract with a deliberately
// PDF-shaped container:
//
//	%SPDF-1.0
//	obj 1 meta
//	<< /DocID (paper-000001) /Title (…) /Authors (A; B) /Year (2019) /Kind (full) >>
//	endobj
//	obj 2 stream /Len 1234
//	…exactly Len bytes of text…
//	endstream
//	%%EOF fnv:9f3c…
//
// The parser tolerates truncation, corrupt objects, bad lengths, and
// checksum mismatches, always salvaging what it can and reporting the
// failure class — the error taxonomy the parallel driver aggregates, as the
// paper's HPC parsing stage does across worker ranks.
package spdf

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/corpus"
	"repro/internal/rng"
)

// Metadata is the parsed document front matter, serialised to JSON by the
// pipeline (the paper's AdaParse emits text + metadata JSON).
type Metadata struct {
	DocID   string   `json:"doc_id"`
	Title   string   `json:"title"`
	Authors []string `json:"authors"`
	Year    int      `json:"year"`
	Kind    string   `json:"kind"` // "full" or "abstract"
}

const (
	header  = "%SPDF-1.0"
	trailer = "%%EOF"
)

// Encode renders a corpus document into SPDF container bytes.
func Encode(d *corpus.Document) []byte {
	var b strings.Builder
	text := d.Text()
	kind := "full"
	if d.Kind == corpus.AbstractOnly {
		kind = "abstract"
	}
	b.WriteString(header)
	b.WriteString("\n")
	b.WriteString("obj 1 meta\n")
	fmt.Fprintf(&b, "<< /DocID (%s) /Title (%s) /Authors (%s) /Year (%d) /Kind (%s) >>\n",
		escape(d.ID), escape(d.Title), escape(strings.Join(d.Authors, "; ")), d.Year, kind)
	b.WriteString("endobj\n")
	fmt.Fprintf(&b, "obj 2 stream /Len %d\n", len(text))
	b.WriteString(text)
	b.WriteString("\nendstream\n")
	fmt.Fprintf(&b, "%s fnv:%016x\n", trailer, rng.HashString(text))
	return []byte(b.String())
}

// escape protects the dictionary delimiters inside string values.
func escape(s string) string {
	s = strings.ReplaceAll(s, "\\", "\\\\")
	s = strings.ReplaceAll(s, "(", "\\(")
	s = strings.ReplaceAll(s, ")", "\\)")
	return s
}

// ErrorClass categorises parse failures for the driver's aggregate report.
type ErrorClass string

const (
	ErrNone        ErrorClass = ""
	ErrBadHeader   ErrorClass = "bad_header"
	ErrNoMeta      ErrorClass = "missing_metadata"
	ErrBadMeta     ErrorClass = "malformed_metadata"
	ErrNoStream    ErrorClass = "missing_stream"
	ErrTruncated   ErrorClass = "truncated_stream"
	ErrBadChecksum ErrorClass = "checksum_mismatch"
)

// ParseError reports a classified failure; Partial parse output may still be
// usable (the paper's pipeline keeps salvageable text).
type ParseError struct {
	Class  ErrorClass
	Detail string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("spdf: %s: %s", e.Class, e.Detail)
}

// Parsed is the output of Parse: extracted text, metadata, and whether the
// trailer checksum validated.
type Parsed struct {
	Meta        Metadata
	Text        string
	ChecksumOK  bool
	HasChecksum bool
}

// Parse decodes SPDF bytes. On failure it returns a *ParseError whose Class
// identifies the fault; when the text stream is salvageable despite the
// error (e.g. checksum mismatch, truncation) the returned Parsed carries the
// partial content alongside the error.
func Parse(data []byte) (*Parsed, error) {
	s := string(data)
	if !strings.HasPrefix(s, header) {
		return nil, &ParseError{Class: ErrBadHeader, Detail: "missing %SPDF-1.0 header"}
	}
	out := &Parsed{}

	// Metadata object.
	metaStart := strings.Index(s, "obj 1 meta")
	if metaStart < 0 {
		return nil, &ParseError{Class: ErrNoMeta, Detail: "no metadata object"}
	}
	dictStart := strings.Index(s[metaStart:], "<<")
	dictEnd := strings.Index(s[metaStart:], ">>")
	if dictStart < 0 || dictEnd < 0 || dictEnd < dictStart {
		return nil, &ParseError{Class: ErrBadMeta, Detail: "unterminated dictionary"}
	}
	dict := s[metaStart+dictStart+2 : metaStart+dictEnd]
	meta, err := parseDict(dict)
	if err != nil {
		return nil, err
	}
	out.Meta = *meta

	// Stream object.
	streamTag := "obj 2 stream /Len "
	streamStart := strings.Index(s, streamTag)
	if streamStart < 0 {
		return out, &ParseError{Class: ErrNoStream, Detail: "no text stream object"}
	}
	rest := s[streamStart+len(streamTag):]
	nl := strings.IndexByte(rest, '\n')
	if nl < 0 {
		return out, &ParseError{Class: ErrNoStream, Detail: "stream header unterminated"}
	}
	length, convErr := strconv.Atoi(strings.TrimSpace(rest[:nl]))
	body := rest[nl+1:]
	if convErr != nil || length < 0 {
		// Unparseable length: salvage up to endstream if present.
		if end := strings.Index(body, "\nendstream"); end >= 0 {
			out.Text = body[:end]
			return out, &ParseError{Class: ErrTruncated, Detail: "unreadable stream length; salvaged by delimiter"}
		}
		return out, &ParseError{Class: ErrNoStream, Detail: "unreadable stream length"}
	}
	if len(body) < length {
		// Truncated file: salvage what is there.
		out.Text = body
		return out, &ParseError{Class: ErrTruncated,
			Detail: fmt.Sprintf("stream declares %d bytes, only %d present", length, len(body))}
	}
	out.Text = body[:length]

	// Trailer checksum (optional but validated when present).
	if ti := strings.LastIndex(s, trailer); ti >= 0 {
		line := s[ti:]
		if ci := strings.Index(line, "fnv:"); ci >= 0 {
			out.HasChecksum = true
			hexStr := strings.TrimSpace(line[ci+4:])
			if nl := strings.IndexByte(hexStr, '\n'); nl >= 0 {
				hexStr = hexStr[:nl]
			}
			want, hexErr := strconv.ParseUint(hexStr, 16, 64)
			if hexErr == nil && want == rng.HashString(out.Text) {
				out.ChecksumOK = true
			} else {
				return out, &ParseError{Class: ErrBadChecksum, Detail: "trailer checksum does not match stream"}
			}
		}
	}
	return out, nil
}

// parseDict decodes the << /Key (value) … >> metadata dictionary.
func parseDict(dict string) (*Metadata, *ParseError) {
	fields := map[string]string{}
	i := 0
	for i < len(dict) {
		slash := strings.IndexByte(dict[i:], '/')
		if slash < 0 {
			break
		}
		i += slash + 1
		keyEnd := strings.IndexAny(dict[i:], " (")
		if keyEnd < 0 {
			return nil, &ParseError{Class: ErrBadMeta, Detail: "key without value"}
		}
		key := dict[i : i+keyEnd]
		open := strings.IndexByte(dict[i:], '(')
		if open < 0 {
			return nil, &ParseError{Class: ErrBadMeta, Detail: "value not parenthesised"}
		}
		i += open + 1
		// Scan to unescaped ')'.
		var val strings.Builder
		for i < len(dict) {
			c := dict[i]
			if c == '\\' && i+1 < len(dict) {
				val.WriteByte(dict[i+1])
				i += 2
				continue
			}
			if c == ')' {
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		fields[key] = val.String()
	}
	if fields["DocID"] == "" {
		return nil, &ParseError{Class: ErrBadMeta, Detail: "missing DocID"}
	}
	year := 0
	if y, err := strconv.Atoi(fields["Year"]); err == nil {
		year = y
	}
	var authors []string
	if a := fields["Authors"]; a != "" {
		for _, part := range strings.Split(a, ";") {
			if p := strings.TrimSpace(part); p != "" {
				authors = append(authors, p)
			}
		}
	}
	return &Metadata{
		DocID:   fields["DocID"],
		Title:   fields["Title"],
		Authors: authors,
		Year:    year,
		Kind:    fields["Kind"],
	}, nil
}

// Corrupt damages SPDF bytes in the given class's characteristic way; the
// fault-injection used by tests and the pipeline's failure-handling bench.
func Corrupt(data []byte, class ErrorClass, r *rng.Source) []byte {
	s := string(data)
	switch class {
	case ErrBadHeader:
		return []byte("%PDF-9.9 not spdf\n" + s[len(header):])
	case ErrNoMeta:
		return []byte(strings.Replace(s, "obj 1 meta", "obj 1 noise", 1))
	case ErrBadMeta:
		return []byte(strings.Replace(s, ">>", "", 1))
	case ErrNoStream:
		return []byte(strings.Replace(s, "obj 2 stream", "obj 2 void", 1))
	case ErrTruncated:
		cut := len(s) / 2
		return []byte(s[:cut])
	case ErrBadChecksum:
		return []byte(strings.Replace(s, "fnv:", "fnv:dead", 1))
	default:
		return data
	}
}
