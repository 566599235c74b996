package temporal

// OracleRead exposes the reference reader to the external test package,
// whose benchmarks and allocation rows need generated inputs
// (internal/gen imports this package).
var OracleRead = oracleRead
