package graph

// OracleReadEdgeList exposes the reference reader to the external test
// package, whose benchmarks and allocation rows need generated inputs
// (internal/gen imports this package).
var OracleReadEdgeList = oracleReadEdgeList
