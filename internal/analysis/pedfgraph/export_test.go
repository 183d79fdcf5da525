package pedfgraph

// ResetClassMemo empties the process-wide classification memo, so a
// benchmark can measure a cold analysis.
var ResetClassMemo = resetClassMemo

// ResetAnalysisMemo empties the process-wide analysis memo, so a test
// can compare a memoized result against a fresh analysis.
var ResetAnalysisMemo = resetAnalysisMemo
