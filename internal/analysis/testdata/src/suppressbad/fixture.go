// Fixture for malformed suppressions: missing analyzer, missing
// reason, unknown analyzer. Checked programmatically (not via want
// comments) in TestMalformedSuppressions.
package supbad

func init() { missingBoth(); missingReason(); unknownAnalyzer() }

//lint:ignore
func missingBoth() {}

//lint:ignore atomicwrite
func missingReason() {}

//lint:ignore nosuchanalyzer because this analyzer does not exist
func unknownAnalyzer() {}
