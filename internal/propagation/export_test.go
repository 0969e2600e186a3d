package propagation

// ChainUnionWorkload lends the stop tests' chain workload to the external
// test package, whose tests also need internal/bench's workloads (bench
// imports this package, so only an external test can import bench).
var ChainUnionWorkload = chainUnionWorkload
