package web

import "strings"

// The escapers behind the appended tables (the sheet and sweep pages).
// Each writes exactly what html/template writes for a value in one
// context, so a table built by appending is byte-identical to the
// {{range}} block it replaced; the oracle tests in sheetpage_test.go
// and sweep_test.go hold them to that.

// appendHTMLText appends text escaped as html/template escapes it in
// element content and in a quoted attribute value — including '+' (as
// in "1.2e+06") and NUL.  Every other byte, invalid UTF-8 included,
// passes through.
func appendHTMLText[T string | []byte](dst []byte, text T) []byte {
	last := 0
	for i := 0; i < len(text); i++ {
		var esc string
		switch text[i] {
		case 0:
			esc = "\uFFFD"
		case '"':
			esc = "&#34;"
		case '&':
			esc = "&amp;"
		case '\'':
			esc = "&#39;"
		case '+':
			esc = "&#43;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		default:
			continue
		}
		dst = append(append(dst, text[last:i]...), esc...)
		last = i + 1
	}
	return append(dst, text[last:]...)
}

// appendURLPath appends text as html/template writes it into a quoted
// href after a fixed path prefix ("/cell/{{.Model}}"): its URL
// normalizer percent-encodes every byte that is neither unreserved nor
// reserved in RFC 3986, keeping a '%' that starts a valid escape, and
// then its attribute escaper runs over the result.
func appendURLPath(dst []byte, text string) []byte {
	const hex = "0123456789abcdef"
	last := 0
	for i := 0; i < len(text); i++ {
		if c := text[i]; !urlKeeps(text, i) {
			dst = append(appendHTMLText(dst, text[last:i]), '%', hex[c>>4], hex[c&15])
			last = i + 1
		}
	}
	return appendHTMLText(dst, text[last:])
}

// urlKeeps reports whether html/template's URL normalizer leaves
// text[i] as it is.
func urlKeeps(text string, i int) bool {
	switch c := text[i]; {
	case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		return true
	case strings.IndexByte("!#$&*+,/:;=?@[]-._~", c) >= 0: // reserved and unreserved
		return true
	case c == '%':
		return i+2 < len(text) && isHexDigit(text[i+1]) && isHexDigit(text[i+2])
	}
	return false
}

func isHexDigit(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}
