package workload

// ThreeCohortSpec exposes the fingerprinted three-cohort spec to the
// external golden test.
var ThreeCohortSpec = threeCohortSpec
