// Package sqlparse parses the SQL dialect defined in package sqlast. The
// engine accepts only SQL text, so the translation layer really does produce
// a single native query string whose compilation is independently measurable.
package sqlparse

import (
	"fmt"
	"strings"
)

type tokenKind int

const (
	tEOF         tokenKind = iota
	tIdent                 // bare identifier (uppercased keywords compared case-insensitively)
	tQuotedIdent           // "name"
	tString                // 'text'
	tNumber                // 123 or 1.5
	tPunct                 // operators and punctuation, Text holds the symbol
)

type token struct {
	kind tokenKind
	text string
	line int
	col  int
}

// Error reports a SQL parse failure with position information.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("sql: parse error at %d:%d: %s", e.Line, e.Col, e.Msg)
}

func lexSQL(src string) ([]token, error) {
	// The paper's SQL runs 3 to 7 bytes a token (generated ADL about 4): one
	// allocation holds every token.
	out := make([]token, 0, len(src)/3+1)
	line, col := 1, 1
	i := 0
	adv := func(n int) {
		for k := 0; k < n; k++ {
			if src[i] == '\n' {
				line++
				col = 1
			} else {
				col++
			}
			i++
		}
	}
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			adv(1)
		case c == '-' && i+1 < len(src) && src[i+1] == '-':
			for i < len(src) && src[i] != '\n' {
				adv(1)
			}
		case c == '"' || c == '\'':
			kind, what := tQuotedIdent, "quoted identifier"
			if c == '\'' {
				kind, what = tString, "string literal"
			}
			text, n, ok := quoted(src[i:])
			if !ok {
				return nil, &Error{Line: line, Col: col, Msg: "unterminated " + what}
			}
			out = append(out, token{kind, text, line, col})
			adv(n)
		case c >= '0' && c <= '9':
			startL, startC := line, col
			start := i
			for i < len(src) && src[i] >= '0' && src[i] <= '9' {
				adv(1)
			}
			if i < len(src) && src[i] == '.' && i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9' {
				adv(1)
				for i < len(src) && src[i] >= '0' && src[i] <= '9' {
					adv(1)
				}
			}
			if i < len(src) && (src[i] == 'e' || src[i] == 'E') {
				j := i + 1
				if j < len(src) && (src[j] == '+' || src[j] == '-') {
					j++
				}
				if j < len(src) && src[j] >= '0' && src[j] <= '9' {
					adv(j - i)
					for i < len(src) && src[i] >= '0' && src[i] <= '9' {
						adv(1)
					}
				}
			}
			out = append(out, token{tNumber, src[start:i], startL, startC})
		case isIdentStart(c):
			startL, startC := line, col
			start := i
			for i < len(src) && isIdentPart(src[i]) {
				adv(1)
			}
			out = append(out, token{tIdent, src[start:i], startL, startC})
		default:
			startL, startC := line, col
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			switch two {
			case "::", "=>", "<>", "!=", "<=", ">=", "||":
				adv(2)
				out = append(out, token{tPunct, two, startL, startC})
				continue
			}
			switch c {
			case '(', ')', ',', '.', '*', '+', '-', '/', '%', '=', '<', '>':
				adv(1)
				out = append(out, token{tPunct, string(c), startL, startC})
			default:
				return nil, &Error{Line: startL, Col: startC, Msg: fmt.Sprintf("unexpected character %q", string(c))}
			}
		}
	}
	out = append(out, token{tEOF, "", line, col})
	return out, nil
}

// quoted reads the quoted identifier or string literal s opens: its text —
// a substring of s unless it holds a doubled quote, which stands for one
// quote — and its length, quotes included. ok is false when it does not
// close.
func quoted(s string) (text string, n int, ok bool) {
	q := s[0]
	doubled := false
	for k := 1; k < len(s); k++ {
		switch {
		case s[k] != q:
		case k+1 < len(s) && s[k+1] == q:
			doubled = true
			k++
		default:
			if text = s[1:k]; doubled {
				text = strings.ReplaceAll(text, s[k:k+1]+s[k:k+1], s[k:k+1])
			}
			return text, k + 1, true
		}
	}
	return "", 0, false
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9' || c == '$'
}
