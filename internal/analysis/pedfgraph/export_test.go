package pedfgraph

// ResetClassMemo empties the process-wide classification memo, so a
// benchmark can measure a cold analysis.
var ResetClassMemo = resetClassMemo
