package web

import (
	"html/template"
)

// The pages.  Deliberately plain mid-90s HTML: tables, forms and
// hyperlinks — the UI surface the paper describes, rendered by any
// browser.  The hot pages, the sheet (sheetpage.go) and the sweep
// (sweep.go), are appended whole into one buffer; the others are
// templates.  Every page starts with appendPageHead and ends with
// pageFoot, the templates through the "head" and "foot" blocks.
var pageTmpl = template.Must(template.New("pages").Funcs(template.FuncMap{
	"pageHead": func(site, title string) template.HTML {
		return template.HTML(appendPageHead(nil, site, title))
	},
}).Parse(pageSrc))

// appendPageHead appends the head every page starts with — the title,
// the style sheet, the navigation bar and the heading — escaping site
// and title as html/template escapes text in <title> and <h1>.
func appendPageHead(dst []byte, site, title string) []byte {
	dst = append(dst, "<!DOCTYPE html>\n<html><head><title>"...)
	dst = appendHTMLText(dst, site)
	dst = append(dst, " - "...)
	dst = appendHTMLText(dst, title)
	dst = append(dst, `</title>
<style>
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; }
td, th { border: 1px solid #888; padding: 2px 8px; text-align: left; }
th { background: #ddd; }
.num { text-align: right; font-family: monospace; }
.total { font-weight: bold; background: #eee; }
.err { color: #a00; font-weight: bold; }
.note { color: #555; font-size: smaller; }
.stale { color: #a60; font-size: smaller; font-style: italic; }
</style></head><body>
<p><a href="/menu">Main Menu</a> | <a href="/library">Library</a> |
<a href="/designs">Designs</a> | <a href="/models/new">New Model</a> |
<a href="/help">Help</a> | <a href="/logout">Logout</a></p>
<h1>`...)
	dst = appendHTMLText(dst, title)
	return append(dst, "</h1>"...)
}

// pageFoot ends every page.
const pageFoot = "</body></html>"

// appendErrorLine appends a page's error line, or nothing when msg is
// empty.
func appendErrorLine(dst []byte, msg string) []byte {
	if msg == "" {
		return dst
	}
	dst = append(dst, "<p class=\"err\">"...)
	dst = appendHTMLText(dst, msg)
	return append(dst, "</p>"...)
}

const pageSrc = `
{{define "head"}}{{pageHead .Site .Title}}{{end}}

{{define "foot"}}` + pageFoot + `{{end}}

{{define "login"}}{{template "head" .}}
<p>PowerPlay needs to know who you are: WWW browsers do not supply user
names.  Your defaults and previously generated designs are retrieved
from this server's file system.</p>
{{if .Error}}<p class="err">{{.Error}}</p>{{end}}
<form method="POST" action="/login">
User name: <input name="user" size="20">
{{if .NeedPassword}}Site password: <input type="password" name="password" size="20">{{end}}
<input type="submit" value="Enter PowerPlay">
</form>
{{template "foot" .}}{{end}}

{{define "menu"}}{{template "head" .}}
<p>Welcome, <b>{{.User}}</b>.</p>
<ul>
<li><a href="/library">Select library elements</a> — primitives and subsystems</li>
<li><a href="/designs">Your design spreadsheets</a> ({{.DesignCount}})</li>
<li><a href="/models/new">Define a new model</a> — names, equations, documentation</li>
<li><a href="/help">Tutorial and help pages</a></li>
</ul>
{{template "foot" .}}{{end}}

{{define "library"}}{{template "head" .}}
{{range .Groups}}
<h2>{{.Class}}</h2>
<table>
<tr><th>Element</th><th>Title</th><th>Documentation</th></tr>
{{range .Cells}}
<tr><td><a href="/cell/{{.Name}}">{{.Name}}</a></td><td>{{.Title}}</td>
<td><a href="/doc/{{.Name}}">doc</a></td></tr>
{{end}}
</table>
{{end}}
{{template "foot" .}}{{end}}

{{define "cell"}}{{template "head" .}}
<p>{{.Doc}} (<a href="/doc/{{.Name}}">full documentation</a>)</p>
{{if .Error}}<p class="err">{{.Error}}</p>{{end}}
<form method="POST" action="/cell/{{.Name}}">
<table>
<tr><th>Parameter</th><th>Value</th><th>Description</th></tr>
{{range .Params}}
<tr><td>{{.Name}}{{if .Unit}} ({{.Unit}}){{end}}</td>
<td>{{if .Options}}<select name="p_{{.Name}}">{{$v := .Value}}{{range .Options}}
<option value="{{.Value}}"{{if eq (printf "%g" .Value) $v}} selected{{end}}>{{.Label}}</option>{{end}}</select>
{{else}}<input name="p_{{.Name}}" value="{{.Value}}" size="12">{{end}}</td>
<td class="note">{{.Doc}}</td></tr>
{{end}}
</table>
<input type="submit" name="action" value="Calculate">
<input type="submit" name="action" value="Add to design">
design: <input name="design" value="{{.Design}}" size="14">
row name: <input name="row" value="{{.Row}}" size="14">
</form>
{{if .Result}}
<h2>Result</h2>
<table>
<tr><th>Power</th><td class="num">{{.Result.Power}}</td></tr>
<tr><th>Energy/op</th><td class="num">{{.Result.Energy}}</td></tr>
<tr><th>Switched cap</th><td class="num">{{.Result.Cap}}</td></tr>
<tr><th>Area</th><td class="num">{{.Result.Area}}</td></tr>
<tr><th>Delay</th><td class="num">{{.Result.Delay}}</td></tr>
</table>
{{range .Result.Notes}}<p class="note">{{.}}</p>{{end}}
{{end}}
{{template "foot" .}}{{end}}

{{define "designs"}}{{template "head" .}}
{{if .Error}}<p class="err">{{.Error}}</p>{{end}}
<table>
<tr><th>Design</th><th>Rows</th><th></th></tr>
{{range .Designs}}
<tr><td><a href="/design/{{.Name}}">{{.Name}}</a></td><td class="num">{{.Rows}}</td>
<td><form method="POST" action="/designs/delete"><input type="hidden" name="name" value="{{.Name}}"><input type="submit" value="Delete"></form></td></tr>
{{end}}
</table>
<form method="POST" action="/designs">
New design: <input name="name" size="20"> <input type="submit" value="Create">
</form>
{{template "foot" .}}{{end}}

{{define "modelform"}}{{template "head" .}}
<p>Define a primitive by naming it, giving equations for the EQ 1
template quantities, and documenting it.  The model is incorporated
into the library with generated documentation links, and is shared with
every user of this server (and, through the network protocol, with
remote sites).</p>
{{if .Error}}<p class="err">{{.Error}}</p>{{end}}
<form method="POST" action="/models/new">
<table>
<tr><td>Name</td><td><input name="name" value="{{.Name}}" size="30"></td><td class="note">e.g. user.mychip.mac</td></tr>
<tr><td>Title</td><td><input name="title" value="{{.TitleField}}" size="30"></td><td></td></tr>
<tr><td>Class</td><td><select name="class">
{{range .Classes}}<option value="{{.}}">{{.}}</option>{{end}}
</select></td><td></td></tr>
<tr><td>Parameters</td><td><textarea name="params" rows="4" cols="40">{{.ParamsField}}</textarea></td>
<td class="note">one per line: name default [min max] [int]</td></tr>
<tr><td>Csw</td><td><input name="csw" value="{{.Csw}}" size="40"></td><td class="note">switched capacitance, F</td></tr>
<tr><td>Vswing</td><td><input name="vswing" value="{{.Vswing}}" size="40"></td><td class="note">empty = full rail</td></tr>
<tr><td>Istatic</td><td><input name="istatic" value="{{.Istatic}}" size="40"></td><td class="note">static current, A</td></tr>
<tr><td>Area</td><td><input name="area" value="{{.AreaField}}" size="40"></td><td class="note">m^2</td></tr>
<tr><td>Delay</td><td><input name="delay" value="{{.Delay}}" size="40"></td><td class="note">s at 1.5 V</td></tr>
<tr><td>Frequency</td><td><input name="freq" value="{{.Freq}}" size="40"></td><td class="note">default: f</td></tr>
<tr><td>Documentation</td><td><textarea name="doc" rows="3" cols="40">{{.DocField}}</textarea></td><td></td></tr>
</table>
<input type="submit" value="Create model">
</form>
{{template "foot" .}}{{end}}

{{define "doc"}}{{template "head" .}}
<p><b>{{.CellTitle}}</b> ({{.Class}})</p>
<p>{{.Doc}}</p>
<h2>Parameters</h2>
<table>
<tr><th>Name</th><th>Default</th><th>Range</th><th>Description</th></tr>
{{range .Params}}
<tr><td>{{.Name}}</td><td class="num">{{.Default}}</td><td>{{.Range}}</td><td>{{.Doc}}</td></tr>
{{end}}
</table>
{{if .Notes}}<h2>Modeling notes (at defaults)</h2>
{{range .Notes}}<p class="note">{{.}}</p>{{end}}{{end}}
<p><a href="/cell/{{.Name}}">Open the input form</a></p>
{{template "foot" .}}{{end}}

{{define "analysis"}}{{template "head" .}}
{{if .Error}}<p class="err">{{.Error}}</p>{{end}}
{{if .Total}}
<p>Total: <b>{{.Total}}</b> — fastest supported clock: {{.MaxFreq}}</p>
<h2>Major power consumers</h2>
<table>
<tr><th>Subcircuit</th><th>Power</th><th>Share</th></tr>
{{range .Consumers}}
<tr><td>{{.Path}}</td><td class="num">{{.Power}}</td><td class="num">{{.SharePct}}</td></tr>
{{end}}
</table>
<p>Point of diminishing returns: optimize <b>{{.TopPaths}}</b>
({{.Coverage}} of the budget); the rest is noise.</p>
{{if .Timing}}
<h2>Timing at {{.ClockLabel}}</h2>
<table>
<tr><th>Subcircuit</th><th>Delay</th><th>Max clock</th><th>Slack</th><th>Meets?</th></tr>
{{range .Timing}}
<tr><td>{{.Path}}</td><td class="num">{{.Delay}}</td><td class="num">{{.MaxFreq}}</td>
<td class="num">{{.Slack}}</td><td>{{if .Meets}}yes{{else}}<span class="err">NO</span>{{end}}</td></tr>
{{end}}
</table>
{{end}}
{{end}}
<p><a href="/design/{{.Name}}">Back to the spreadsheet</a></p>
{{template "foot" .}}{{end}}

{{define "help"}}{{template "head" .}}
<h2>Three minutes to a power estimate</h2>
<ol>
<li>Identify yourself on the front page; your defaults and designs live on this server.</li>
<li>Pick a primitive from the <a href="/library">library</a>; set bit-widths,
memory organization and correlation on its form; feedback is instantaneous,
so cycle through options freely.</li>
<li>Save the configured element to a design spreadsheet.</li>
<li>On the <a href="/designs">design sheet</a>, introduce variables (supply
voltage, clock frequency) and write any parameter as an expression over
them — e.g. <code>f/16</code> for a buffer read twice per 32 pixels.</li>
<li>Press PLAY: power, area and delay are recomputed hierarchically.
Inter-model references like <code>power("radio")</code> let DC-DC converter
rows track the modules they feed.</li>
<li>Define missing primitives through the <a href="/models/new">model form</a>;
they are documented and shared automatically.</li>
</ol>
<p>Remote sites can mount this library over HTTP (see the API at
<code>/api/v1/models</code>), so a library characterized in Massachusetts
prices designs in California.</p>
{{template "foot" .}}{{end}}
`
