package storage

import (
	"testing"

	"powerplay/internal/core/model"
	"powerplay/internal/core/model/formtest"
	"powerplay/internal/units"
)

// TestStorageSweepFormsMatchEvaluate holds each storage kernel to its
// Evaluate over the formtest grid.
func TestStorageSweepFormsMatchEvaluate(t *testing.T) {
	sram := &SRAM{
		Name: "t.sram", C0: 1.2 * units.PicoFarad,
		CWord: 3 * units.FemtoFarad, CBit: 5 * units.FemtoFarad,
		CWordBit: 0.08 * units.FemtoFarad, LeakPerCell: 20e-12,
		CellArea: 140 * units.SquareMicron, PeripheryArea: 1e5 * units.SquareMicron,
		Delay0: 8e-9,
	}
	noleak := &SRAM{
		Name: "t.sram0", C0: 1.2 * units.PicoFarad,
		CWordBit: 0.08 * units.FemtoFarad, CellArea: 140 * units.SquareMicron,
		Delay0: 8e-9,
	}
	rf := &RegisterFile{
		Name: "t.rf", CapPerBit: 60 * units.FemtoFarad,
		CapPerCell: 2 * units.FemtoFarad, CellArea: 700 * units.SquareMicron,
		Delay: 3e-9,
	}
	dram := &DRAM{
		Name: "t.dram", C0: 5 * units.PicoFarad,
		CWord: 1 * units.FemtoFarad, CBit: 9 * units.FemtoFarad,
		CWordBit: 0.03 * units.FemtoFarad, CellArea: 4 * units.SquareMicron,
		Delay0: 60e-9, RefreshPeriod: 16e-3,
	}
	cases := []struct {
		m    model.Model
		base model.Params
	}{
		{sram, model.Params{"words": 1024, "bits": 16, "swing": RailToRail}},
		{sram, model.Params{"words": 1024, "bits": 16, "swing": ReducedSwing, "vswing": 0.3}},
		{sram, model.Params{"words": 1, "bits": 1, "act": 0.5, "tech": 0.6e-6}},
		{noleak, model.Params{"words": 256, "bits": 8}},
		{rf, model.Params{"words": 16, "bits": 32, "act": 0.25}},
		{rf, model.Params{"words": 8, "bits": 8, "tech": 1.2e-6}},
		{dram, model.Params{"words": 1 << 16, "bits": 16, "act": 0.8}},
	}
	for _, c := range cases {
		formtest.Check(t, c.m, c.base)
	}
}

// TestDRAMSweepFormRefusesBadRefresh pins the fallback contract: a DRAM
// whose Evaluate would fail (non-positive refresh period) must refuse a
// sweep form so the scalar path reports the canonical error.
func TestDRAMSweepFormRefusesBadRefresh(t *testing.T) {
	d := &DRAM{Name: "t.dram"}
	full, err := model.Validate(d.Info().Params, model.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.SweepForm(full); ok {
		t.Fatal("DRAM with RefreshPeriod <= 0 offered a sweep form")
	}
}
