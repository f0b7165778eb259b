package core

// Hooks for the external tests, which import packages that import core.
var SharedDataset, RequireGoldenBytes = dataset, requireGoldenBytes
