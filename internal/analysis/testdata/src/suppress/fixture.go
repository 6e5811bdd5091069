// Fixture for the suppression mechanism: a reasoned lint:ignore
// silences exactly one analyzer on its own line or the next, and a
// suppression that suppresses nothing is itself diagnosed.
package sup

import "os"

func standalone(path string, data []byte) error {
	//lint:ignore atomicwrite fixture: scratch file no recovery path ever reads
	return os.WriteFile(path, data, 0o644)
}

func trailing(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644) //lint:ignore atomicwrite fixture: scratch file no recovery path ever reads
}

func wrongAnalyzer(path string, data []byte) error {
	//lint:ignore sentinelerr fixture: names the wrong analyzer, so the write below still fires // want `unused suppression for sentinelerr`
	return os.WriteFile(path, data, 0o644) // want `os\.WriteFile truncates the destination`
}

func unused() {} //lint:ignore atomicwrite fixture: suppresses nothing at all // want `unused suppression for atomicwrite: no diagnostic on this or the next line`
