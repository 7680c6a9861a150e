package sheet

import (
	"math"
	"testing"
)

func adviceDesign(t *testing.T) (*Design, *Result) {
	t.Helper()
	d := NewDesign("demo", testRegistry())
	d.Root.SetGlobalValue("vdd", 1.5, "1.5")
	d.Root.SetGlobalValue("f", 1e6, "1e6")
	setParamValue(d.Root.MustAddChild("hog", "cell"), "bits", 900, "900")
	sub := d.Root.MustAddChild("sub", "")
	setParamValue(sub.MustAddChild("mid", "cell"), "bits", 90, "90")
	setParamValue(sub.MustAddChild("tiny", "cell"), "bits", 10, "10")
	r, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	return d, r
}

func TestAdviceRanksConsumers(t *testing.T) {
	_, r := adviceDesign(t)
	rows := Advice(r)
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0].Path != "hog" || rows[1].Path != "sub/mid" || rows[2].Path != "sub/tiny" {
		t.Errorf("order = %v", rows)
	}
	if math.Abs(rows[0].Share-0.9) > 1e-9 {
		t.Errorf("hog share = %v", rows[0].Share)
	}
	// Amdahl: eliminating the hog saves at most its share.
	if rows[0].MaxGain != rows[0].Share {
		t.Error("MaxGain should equal share for a leaf")
	}
	var sum float64
	for _, row := range rows {
		sum += row.Share
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
}

func TestDiminishingReturns(t *testing.T) {
	_, r := adviceDesign(t)
	// 80% coverage needs only the hog.
	top := DiminishingReturns(r, 0.8)
	if len(top) != 1 || top[0].Path != "hog" {
		t.Errorf("top = %v", top)
	}
	// 95% needs hog + mid.
	top = DiminishingReturns(r, 0.95)
	if len(top) != 2 {
		t.Errorf("top = %v", top)
	}
	// Full coverage returns everything.
	if top := DiminishingReturns(r, 1.0); len(top) != 3 {
		t.Errorf("full coverage = %v", top)
	}
}

func TestTimingReport(t *testing.T) {
	_, r := adviceDesign(t)
	// The test cell's delay is bits ns: hog 900ns, mid 90ns, tiny 10ns.
	rows, err := TimingReport(r, 5e6) // 200 ns cycle
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	// Sorted by slack: the violating hog first.
	if rows[0].Path != "hog" || rows[0].Meets {
		t.Errorf("worst row = %+v", rows[0])
	}
	if !rows[1].Meets || !rows[2].Meets {
		t.Error("mid and tiny meet 5MHz")
	}
	if math.Abs(rows[1].SlackSeconds-(200e-9-90e-9)) > 1e-15 {
		t.Errorf("mid slack = %v", rows[1].SlackSeconds)
	}
	if _, err := TimingReport(r, 0); err == nil {
		t.Error("zero target should fail")
	}
}

func TestCriticalRowAndMaxFrequency(t *testing.T) {
	_, r := adviceDesign(t)
	crit := CriticalRow(r)
	if crit == nil || crit.Path != "hog" {
		t.Fatalf("critical = %+v", crit)
	}
	if math.Abs(float64(MaxFrequency(r))-1/900e-9) > 1 {
		t.Errorf("MaxFrequency = %v", MaxFrequency(r))
	}
	// A design with no timing models: infinite frequency.
	d := NewDesign("none", testRegistry())
	d.Root.SetGlobalValue("vdd", 5, "5")
	d.Root.SetGlobalValue("f", 1e6, "1e6")
	d.Root.MustAddChild("loss", "loss")
	rr, err := d.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(float64(MaxFrequency(rr)), 1) {
		t.Error("untimed design should report +Inf")
	}
	if CriticalRow(rr) != nil {
		t.Error("untimed design has no critical row")
	}
}
