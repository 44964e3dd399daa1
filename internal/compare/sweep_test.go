package compare

import (
	"testing"
)

func TestSweepAggregatesSystemicCause(t *testing.T) {
	// The planted call log: phone ph2 is the only bad phone, and its
	// excess lives in Time-of-Call. Every significant pair involves ph2,
	// and each such comparison ranks Time-of-Call first — so the sweep
	// must surface Time-of-Call as the recurrent distinguishing
	// attribute, with ph2 in its best pair.
	store, gt, ds := buildCaseStudy(t, 60000, 2)
	phone := ds.AttrIndex(gt.PhoneAttr)
	cls, _ := ds.ClassDict().Lookup(gt.DropClass)
	res, err := NewSource(store).Sweep(phone, cls, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PairsCompared == 0 {
		t.Fatal("sweep compared nothing")
	}
	if len(res.Attributes) == 0 {
		t.Fatal("no aggregated attributes")
	}
	top := res.Attributes[0]
	if top.Name != gt.DistinguishingAttr {
		t.Errorf("sweep top = %q, want %q", top.Name, gt.DistinguishingAttr)
	}
	if top.Pairs < 2 {
		t.Errorf("recurrent attribute appeared in %d pairs, want ≥ 2", top.Pairs)
	}
	if top.BestPair[0] != gt.BadPhone && top.BestPair[1] != gt.BadPhone {
		t.Errorf("best pair %v does not involve the bad phone", top.BestPair)
	}
	if len(res.Comparisons) != res.PairsCompared || len(res.PairLabels) != res.PairsCompared {
		t.Error("comparison bookkeeping inconsistent")
	}
}

func TestSweepOptionsRespected(t *testing.T) {
	store, gt, ds := buildCaseStudy(t, 30000, 1)
	phone := ds.AttrIndex(gt.PhoneAttr)
	cls, _ := ds.ClassDict().Lookup(gt.DropClass)
	c := NewSource(store)
	// A huge MinScore filters every appearance.
	res, err := c.Sweep(phone, cls, SweepOptions{MinScore: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Attributes) != 0 {
		t.Error("MinScore not honored")
	}
	// MaxPairs bounds the work.
	res, err = c.Sweep(phone, cls, SweepOptions{Screen: ScreenOptions{MaxPairs: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.PairsCompared > 1 {
		t.Errorf("compared %d pairs with MaxPairs 1", res.PairsCompared)
	}
	// Bad attribute propagates the screening error.
	if _, err := c.Sweep(ds.ClassIndex(), cls, SweepOptions{}); err == nil {
		t.Error("class attribute should fail")
	}
}
