package histogram

// CheckProbes is the probe-versus-scan check for the external test package:
// the catalog imports this package, so a test over catalog columns cannot
// live inside it.
var CheckProbes = checkProbes
