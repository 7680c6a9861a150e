package expr

import (
	"strings"
	"unicode"
	"unicode/utf8"

	"powerplay/internal/units"
)

type lexer struct {
	src string
	pos int
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		break
	}
}

// next scans one token.
func (l *lexer) next() (token, error) {
	l.skipSpace()
	start := l.pos
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.src[l.pos]
	switch {
	case c >= '0' && c <= '9' || c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		return l.lexNumber()
	case c == '"' || c == '\'':
		return l.lexString(c)
	case isIdentStart(rune(c)) || c >= utf8.RuneSelf:
		return l.lexIdent()
	}
	// Operators.
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "==", "!=", "<=", ">=":
		l.pos += 2
		return token{kind: tokRelOp, pos: start, text: two}, nil
	case "&&", "||":
		l.pos += 2
		return token{kind: tokBoolOp, pos: start, text: two}, nil
	}
	switch c {
	case '<', '>':
		l.pos++
		return token{kind: tokRelOp, pos: start, text: string(c)}, nil
	case '!':
		l.pos++
		return token{kind: tokBoolOp, pos: start, text: "!"}, nil
	case '+', '-', '*', '/', '%', '^', '(', ')', ',', '?', ':':
		l.pos++
		return token{kind: tokOp, pos: start, text: string(c)}, nil
	}
	return token{}, errf(l.src, start, "unexpected character %q", c)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || r == '.' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// lexNumber scans a numeric literal, including an attached engineering
// suffix ("253fF", "2MHz", "100u").  The mantissa is scanned first; any
// immediately following letters are treated as a units suffix and folded
// into the value via units.Parse.
func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	seenDot, seenExp := false, false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case isDigit(c):
			l.pos++
		case c == '.' && !seenDot && !seenExp:
			seenDot = true
			l.pos++
		case (c == 'e' || c == 'E') && !seenExp && l.pos > start && expTailAt(l.src, l.pos+1):
			seenExp = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		default:
			goto suffix
		}
	}
suffix:
	// Attached unit/prefix letters, e.g. the "fF" of "253fF".  Stop at
	// anything that is not a letter (µ included).
	sufStart := l.pos
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !unicode.IsLetter(r) {
			break
		}
		l.pos += size
	}
	lit := l.src[start:l.pos]
	v, err := units.Parse(lit)
	if err != nil {
		// The letters may belong to a following identifier typo; report
		// at the suffix.
		return token{}, errf(l.src, sufStart, "malformed number %q", lit)
	}
	return token{kind: tokNumber, pos: start, text: lit, num: v}, nil
}

func expTailAt(s string, i int) bool {
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	return i < len(s) && isDigit(s[i])
}

func (l *lexer) lexString(quote byte) (token, error) {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case quote:
			l.pos++
			return token{kind: tokString, pos: start, text: l.src[start:l.pos], str: b.String()}, nil
		case '\\':
			if l.pos+1 >= len(l.src) {
				return token{}, errf(l.src, l.pos, "unterminated escape")
			}
			l.pos++
			b.WriteByte(l.src[l.pos])
			l.pos++
		default:
			b.WriteByte(c)
			l.pos++
		}
	}
	return token{}, errf(l.src, start, "unterminated string")
}

func (l *lexer) lexIdent() (token, error) {
	start := l.pos
	for l.pos < len(l.src) {
		r, size := utf8.DecodeRuneInString(l.src[l.pos:])
		if !isIdentPart(r) {
			break
		}
		l.pos += size
	}
	return token{kind: tokIdent, pos: start, text: l.src[start:l.pos]}, nil
}
