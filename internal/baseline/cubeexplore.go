package baseline

import (
	"fmt"
	"math"
	"sort"

	"opmap/internal/rulecube"
	"opmap/internal/stats"
)

// Discovery-driven cube exception mining in the style of Sarawagi,
// Agrawal & Megiddo (Section II's OLAP-framework related work): a cube
// cell is exceptional when its value differs dramatically from what an
// additive model over the cube's marginals predicts. The paper contrasts
// its comparator against this: exception mining flags surprising cells,
// whereas the comparator explains the *difference between two chosen
// sub-populations*. Implementing both lets the evaluation show they
// answer different questions.

// CellException is a cube cell whose confidence deviates from the
// additive-model expectation.
type CellException struct {
	Values     []int32 // cell coordinates in cube dimension order
	Labels     []string
	Class      int32
	ClassLabel string
	Observed   float64 // observed confidence of the cell for the class
	Expected   float64 // additive-model expectation
	Residual   float64 // Observed − Expected
	// SelfExp is the standardized residual (residual / residual stddev
	// across the cube), the cell's surprise score.
	SelfExp float64
	Support int64
}

// ExplorerOptions tunes exception mining.
type ExplorerOptions struct {
	// MinSelfExp is the minimum |SelfExp| to report; zero means 2.5.
	MinSelfExp float64
	// MinSupport skips cells backed by fewer records; zero means 30.
	MinSupport int64
	// Class restricts mining to one class code; negative means all.
	Class int32
}

func (o ExplorerOptions) minSelfExp() float64 {
	if stats.IsZero(o.MinSelfExp) {
		return 2.5
	}
	return o.MinSelfExp
}

func (o ExplorerOptions) minSupport() int64 {
	if o.MinSupport == 0 {
		return 30
	}
	return o.MinSupport
}

// ExploreCube finds exceptional cells of a 3-D rule cube (two condition
// dimensions plus class). The additive model for the confidence of cell
// (i, j) for a class is
//
//	ŷ(i,j) = μ + α_i + β_j
//
// with μ the grand mean confidence and α/β the row/column effects
// (means minus grand mean), the standard ANOVA-style decomposition used
// by discovery-driven exploration.
func ExploreCube(cube *rulecube.Cube, opts ExplorerOptions) ([]CellException, error) {
	if cube.NumDims() != 2 {
		return nil, fmt.Errorf("baseline: ExploreCube needs a 3-D rule cube, got %d condition dims", cube.NumDims())
	}
	d0, d1 := cube.Dim(0), cube.Dim(1)
	var out []CellException
	for cls := int32(0); int(cls) < cube.NumClasses(); cls++ {
		if opts.Class >= 0 && cls != opts.Class {
			continue
		}
		conf := make([][]float64, d0)
		sup := make([][]int64, d0)
		valid := make([][]bool, d0)
		for i := 0; i < d0; i++ {
			conf[i] = make([]float64, d1)
			sup[i] = make([]int64, d1)
			valid[i] = make([]bool, d1)
			for j := 0; j < d1; j++ {
				coords := []int32{int32(i), int32(j)}
				n, err := cube.CondCount(coords)
				if err != nil {
					return nil, err
				}
				sup[i][j] = n
				if n < opts.minSupport() {
					continue
				}
				cf, err := cube.Confidence(coords, cls)
				if err != nil {
					return nil, err
				}
				conf[i][j] = cf
				valid[i][j] = true
			}
		}
		// Grand mean and row/column effects over valid cells.
		var grand float64
		var nValid int
		rowSum := make([]float64, d0)
		rowN := make([]int, d0)
		colSum := make([]float64, d1)
		colN := make([]int, d1)
		for i := 0; i < d0; i++ {
			for j := 0; j < d1; j++ {
				if !valid[i][j] {
					continue
				}
				grand += conf[i][j]
				nValid++
				rowSum[i] += conf[i][j]
				rowN[i]++
				colSum[j] += conf[i][j]
				colN[j]++
			}
		}
		if nValid < 4 {
			continue
		}
		grand /= float64(nValid)
		// Residuals and their spread.
		var residuals []float64
		type cellRef struct {
			i, j int
			res  float64
			exp  float64
		}
		var cells []cellRef
		for i := 0; i < d0; i++ {
			if rowN[i] == 0 {
				continue
			}
			alpha := rowSum[i]/float64(rowN[i]) - grand
			for j := 0; j < d1; j++ {
				if !valid[i][j] || colN[j] == 0 {
					continue
				}
				beta := colSum[j]/float64(colN[j]) - grand
				expected := grand + alpha + beta
				res := conf[i][j] - expected
				residuals = append(residuals, res)
				cells = append(cells, cellRef{i, j, res, expected})
			}
		}
		sd := stats.StdDev(residuals)
		if stats.IsZero(sd) {
			continue
		}
		for _, c := range cells {
			self := c.res / sd
			if math.Abs(self) < opts.minSelfExp() {
				continue
			}
			out = append(out, CellException{
				Values: []int32{int32(c.i), int32(c.j)},
				Labels: []string{
					cube.Dict(0).Label(int32(c.i)),
					cube.Dict(1).Label(int32(c.j)),
				},
				Class:      cls,
				ClassLabel: cube.ClassDict().Label(cls),
				Observed:   conf[c.i][c.j],
				Expected:   c.exp,
				Residual:   c.res,
				SelfExp:    self,
				Support:    sup[c.i][c.j],
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return math.Abs(out[i].SelfExp) > math.Abs(out[j].SelfExp)
	})
	return out, nil
}
