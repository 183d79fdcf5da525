//go:build !slowinterp

package filterc

// buildDefaultVM selects the bytecode VM as the default engine. Build
// with -tags slowinterp to fall back to the tree-walking oracle.
const buildDefaultVM = true
