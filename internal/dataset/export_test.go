package dataset

// Test hooks for the external dataset_test package, whose tests import
// generators that themselves import this package.
var (
	ReadCSVReference = readCSVReference
	DiffDatasets     = diffDatasets
)
