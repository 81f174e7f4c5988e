package skyline

// FilterDiff exposes the filtered-versus-unfiltered comparison to the
// external test package, whose local sets come from packages that import
// this one.
var FilterDiff = filterDiff
