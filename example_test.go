package opmap_test

import (
	"bytes"
	"fmt"
	"log"

	"opmap"
)

// Example demonstrates the full pipeline on a synthetic call log: the
// planted distinguishing attribute (Time-of-Call) is recovered at rank 1
// and the planted property attribute is set aside.
func Example() {
	session, truth, err := opmap.GenerateCallLog(opmap.CallLogConfig{
		Seed:    42,
		Records: 40000,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := session.Discretize(opmap.DiscretizeOptions{}); err != nil {
		log.Fatal(err)
	}
	if err := session.BuildCubes(); err != nil {
		log.Fatal(err)
	}
	cmp, err := session.Compare(truth.PhoneAttr, truth.GoodPhone, truth.BadPhone,
		truth.DropClass, opmap.CompareOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top attribute:", cmp.Top(1)[0].Name)
	for _, p := range cmp.PropertyAttributes() {
		fmt.Println("property attribute:", p.Name)
	}
	// Output:
	// top attribute: Time-of-Call
	// property attribute: Phone-Hardware-Version
}

// ExampleSession_ScreenPairs shows the automated pre-step: find the most
// divergent value pair before running the comparison.
func ExampleSession_ScreenPairs() {
	session, truth, err := opmap.GenerateCallLog(opmap.CallLogConfig{Seed: 42, Records: 40000})
	if err != nil {
		log.Fatal(err)
	}
	if err := session.Discretize(opmap.DiscretizeOptions{}); err != nil {
		log.Fatal(err)
	}
	if err := session.BuildCubes(); err != nil {
		log.Fatal(err)
	}
	pairs, err := session.ScreenPairs(truth.PhoneAttr, truth.DropClass, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("most divergent pair: %s vs %s\n", pairs[0].Value1, pairs[0].Value2)
	// Output:
	// most divergent pair: ph1 vs ph2
}

// ExampleSession_CompareOneVsRest compares morning calls against all
// other calls — the paper's Section III.C non-product use case.
func ExampleSession_CompareOneVsRest() {
	session, truth, err := opmap.GenerateCallLog(opmap.CallLogConfig{Seed: 42, Records: 40000})
	if err != nil {
		log.Fatal(err)
	}
	if err := session.Discretize(opmap.DiscretizeOptions{}); err != nil {
		log.Fatal(err)
	}
	if err := session.BuildCubes(); err != nil {
		log.Fatal(err)
	}
	cmp, err := session.CompareOneVsRest(truth.DistinguishingAttr, "morning",
		truth.DropClass, opmap.CompareOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s vs %s\n", cmp.Label2, cmp.Label1)
	// Output:
	// morning vs rest
}

// ExampleLoadSnapshot shows the offline/online split: the session
// saved once, comparisons served later without the source data.
func ExampleLoadSnapshot() {
	session, truth, err := opmap.GenerateCallLog(opmap.CallLogConfig{Seed: 42, Records: 40000})
	if err != nil {
		log.Fatal(err)
	}
	if err := session.Discretize(opmap.DiscretizeOptions{}); err != nil {
		log.Fatal(err)
	}
	if err := session.BuildCubes(); err != nil {
		log.Fatal(err)
	}
	var blob bytes.Buffer
	if err := session.SaveSnapshot(&blob, opmap.SnapshotOptions{}); err != nil {
		log.Fatal(err)
	}

	// Later, possibly on another machine: no source data needed.
	live, err := opmap.LoadSnapshot(&blob)
	if err != nil {
		log.Fatal(err)
	}
	cmp, err := live.Compare(truth.PhoneAttr, truth.GoodPhone, truth.BadPhone,
		truth.DropClass, opmap.CompareOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top attribute from the reloaded session:", cmp.Top(1)[0].Name)
	// Output:
	// top attribute from the reloaded session: Time-of-Call
}
