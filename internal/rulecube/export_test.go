package rulecube

// CheckBruteForce exposes the brute-force cube check to the external
// test package, whose ingest tests drive the lazy engine (which
// imports this package and so cannot be imported from it).
var CheckBruteForce = checkBruteForce
