// Manufacturing: defect diagnosis in a production line, the paper's
// claim that automated comparison "is useful in any engineering or
// manufacturing domain" (Section III.C). The dataset includes two
// continuous attributes, so this example also exercises the discretizer
// (entropy-MDLP by default, with a manual override for Humidity).
//
// Run with:
//
//	go run ./examples/manufacturing
package main

import (
	"fmt"
	"log"
	"os"
	"sort"

	"opmap"
)

func main() {
	log.SetFlags(0)

	session, truth, err := opmap.GenerateManufacturing(7, 60000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("production log: %d units, attributes %v\n",
		session.NumRows(), session.Attributes())

	// Discretize the continuous attributes. Humidity gets a manual cut
	// at 70 %RH (domain knowledge: condensation risk); Temperature falls
	// back to supervised entropy-MDLP.
	err = session.Discretize(opmap.DiscretizeOptions{
		Manual: map[string][]float64{"Humidity": {70}},
	})
	if err != nil {
		log.Fatal(err)
	}
	cuts := session.Cuts()
	attrs := make([]string, 0, len(cuts))
	for attr := range cuts {
		attrs = append(attrs, attr)
	}
	sort.Strings(attrs) // map order varies run to run
	for _, attr := range attrs {
		fmt.Printf("discretized %-12s cuts=%v\n", attr, cuts[attr])
	}
	if err := session.BuildCubes(); err != nil {
		log.Fatal(err)
	}

	// Machine M7's defect rate is twice M2's. Why?
	cmp, err := session.Compare(truth.MachineAttr, truth.GoodMachine, truth.BadMachine,
		truth.DefectClass, opmap.CompareOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s defect rate %.2f%% vs %s %.2f%% — ranking explanations:\n\n",
		cmp.Label1, 100*cmp.Cf1, cmp.Label2, 100*cmp.Cf2)
	cmp.RenderRanking(os.Stdout, 6)

	top := cmp.Top(1)[0]
	fmt.Printf("\n--- %s breakdown ---\n", top.Name)
	if err := cmp.RenderAttribute(os.Stdout, top.Name); err != nil {
		log.Fatal(err)
	}

	// General impressions: is there a humidity trend?
	imp, err := session.Impressions(opmap.ImpressionOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n--- General impressions ---")
	for _, tr := range imp.Trends {
		if tr.Class == truth.DefectClass {
			fmt.Printf("trend: %s is %s for %s (strength %.2f)\n",
				tr.Attr, tr.Kind, tr.Class, tr.Strength)
		}
	}
	for i, inf := range imp.Influential {
		if i >= 4 {
			break
		}
		fmt.Printf("influence #%d: %-14s chi2=%.0f p=%.3g MI=%.4f bits\n",
			i+1, inf.Attr, inf.ChiSquare, inf.PValue, inf.MutualInformation)
	}

	fmt.Printf("\nverdict: planted %q ranked #1: %v (bad batches from supplier %s)\n",
		truth.DistinguishingAttr, top.Name == truth.DistinguishingAttr, truth.BadSupplier)
}
