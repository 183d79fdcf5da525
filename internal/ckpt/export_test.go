package ckpt

// The verb lists, for the external tests' drift guard.
var ReadOnlyVerbs, CtlVerbs = readOnlyVerbs, ctlVerbs
