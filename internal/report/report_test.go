package report

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestRenderAligned(t *testing.T) {
	tbl := New("Demo", "name", "value")
	tbl.AddRow("alpha", "1")
	tbl.AddRow("b", "22222")
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d, want 5:\n%s", len(lines), out)
	}
	if lines[0] != "Demo" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "name ") || !strings.Contains(lines[1], "value") {
		t.Errorf("header line = %q", lines[1])
	}
	if !strings.HasPrefix(lines[3], "alpha") {
		t.Errorf("row line = %q", lines[3])
	}
}

func TestRenderShortRowPadded(t *testing.T) {
	tbl := New("", "a", "b", "c")
	tbl.AddRow("x")
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "<nil>") {
		t.Error("padding failed")
	}
}

func TestRenderCSVEscapes(t *testing.T) {
	tbl := New("t", "name", "note")
	tbl.AddRow(`x,y`, `he said "hi"`)
	var sb strings.Builder
	if err := tbl.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "name,note\n\"x,y\",\"he said \"\"hi\"\"\"\n"
	if sb.String() != want {
		t.Errorf("csv = %q, want %q", sb.String(), want)
	}
}

func TestEmptyTableErrors(t *testing.T) {
	var tbl Table
	var sb strings.Builder
	if err := tbl.Render(&sb); err == nil {
		t.Error("render of column-less table accepted")
	}
	if err := tbl.RenderCSV(&sb); err == nil {
		t.Error("csv of column-less table accepted")
	}
	if err := tbl.RenderJSON(&sb); err == nil {
		t.Error("json of column-less table accepted")
	}
}

func TestRenderJSONRoundTrip(t *testing.T) {
	tbl := New("Fig. X", "name", "value", "note")
	tbl.AddRow("alpha", "1", `quote " and comma ,`)
	tbl.AddRow("short") // padded to header width
	var sb strings.Builder
	if err := tbl.RenderJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasSuffix(out, "\n") {
		t.Error("JSON output not newline-terminated")
	}
	var got Results
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	want := Results{
		Title:   "Fig. X",
		Headers: []string{"name", "value", "note"},
		Rows: [][]string{
			{"alpha", "1", `quote " and comma ,`},
			{"short", "", ""},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}
}

func TestResultsTableRoundTrip(t *testing.T) {
	tbl := New("T", "a", "b")
	tbl.AddRow("1", "2")
	back := tbl.Results().Table()
	if !reflect.DeepEqual(back, tbl) {
		t.Errorf("Results().Table() = %+v, want %+v", back, tbl)
	}
}

func TestResultsEmptyRowsEncodeAsArray(t *testing.T) {
	tbl := New("T", "a")
	raw, err := json.Marshal(tbl.Results())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"rows":null`) {
		t.Errorf("rows encoded as null: %s", raw)
	}
}

func TestFormatters(t *testing.T) {
	if got := Pct(12.345); got != "12.35%" {
		t.Errorf("Pct = %q", got)
	}
	if got := F(1.5, 1); got != "1.5" {
		t.Errorf("F = %q", got)
	}
	if got := I(-3); got != "-3" {
		t.Errorf("I = %q", got)
	}
	if got := U(7); got != "7" {
		t.Errorf("U = %q", got)
	}
}

func TestRenderAlignsUTF8(t *testing.T) {
	// Section signs and dashes are multi-byte; columns must align by rune
	// count, not byte count.
	tbl := New("", "name", "v")
	tbl.AddRow("§VI-D", "1")
	tbl.AddRow("plain", "2")
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	col := strings.Index(lines[2], "1")
	col2 := strings.Index(lines[3], "2")
	// Compare rune positions of the value column.
	r1 := len([]rune(lines[2][:col]))
	r2 := len([]rune(lines[3][:col2]))
	if r1 != r2 {
		t.Errorf("value column misaligned: %d vs %d runes\n%s", r1, r2, sb.String())
	}
}

func TestRenderCSVEscapesNewlines(t *testing.T) {
	tbl := New("t", "name", "note")
	tbl.AddRow("multi", "line one\nline two")
	var sb strings.Builder
	if err := tbl.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "name,note\nmulti,\"line one\nline two\"\n"
	if sb.String() != want {
		t.Errorf("csv = %q, want %q", sb.String(), want)
	}
}

func TestEmitFormats(t *testing.T) {
	tbl := New("T", "a", "b")
	tbl.AddRow("1", "2")

	var table, csv, jsonOut, dflt strings.Builder
	for _, c := range []struct {
		w      *strings.Builder
		format string
	}{
		{&table, FormatTable}, {&csv, FormatCSV}, {&jsonOut, FormatJSON}, {&dflt, ""},
	} {
		if err := Emit(c.w, tbl, c.format); err != nil {
			t.Fatalf("Emit(%q): %v", c.format, err)
		}
	}
	if table.String() != dflt.String() {
		t.Error("empty format did not default to table")
	}
	if !strings.HasPrefix(csv.String(), "a,b\n") {
		t.Errorf("csv = %q", csv.String())
	}
	var res Results
	if err := json.Unmarshal([]byte(jsonOut.String()), &res); err != nil {
		t.Fatalf("json output invalid: %v", err)
	}
}

func TestEmitUnknownFormat(t *testing.T) {
	tbl := New("T", "a")
	var sb strings.Builder
	err := Emit(&sb, tbl, "yaml")
	if err == nil {
		t.Fatal("unknown format accepted")
	}
	if !strings.Contains(err.Error(), `"yaml"`) {
		t.Errorf("error does not name the format: %v", err)
	}
	if err := Emit(&sb, nil, FormatTable); err == nil {
		t.Error("nil table accepted")
	}
}

func TestEmitAllJSONSingleDocument(t *testing.T) {
	t1 := New("one", "a")
	t1.AddRow("1")
	t2 := New("two", "b")
	t2.AddRow("2")

	var sb strings.Builder
	if err := EmitAll(&sb, []*Table{t1, t2}, FormatJSON); err != nil {
		t.Fatal(err)
	}
	var all []Results
	if err := json.Unmarshal([]byte(sb.String()), &all); err != nil {
		t.Fatalf("multi-table JSON is not one document: %v\n%s", err, sb.String())
	}
	if len(all) != 2 || all[0].Title != "one" || all[1].Title != "two" {
		t.Errorf("decoded = %+v", all)
	}

	// Table output separates tables with exactly one blank line.
	var tb strings.Builder
	if err := EmitAll(&tb, []*Table{t1, t2}, FormatTable); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tb.String(), "\n\ntwo\n") {
		t.Errorf("tables not blank-line separated:\n%s", tb.String())
	}
	if strings.HasSuffix(tb.String(), "\n\n") {
		t.Error("trailing blank line after last table")
	}
}
