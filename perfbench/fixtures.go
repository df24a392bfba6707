package main

import (
	"fmt"
	"os"
	"path/filepath"

	tomography "repro"
)

// fixtureSources names each committed fixture and the registry scenario
// and seed it was built from. writeFixtures regenerates the files; the
// benchmark itself only ever reads the committed bytes.
var fixtureSources = []struct {
	name, scenario string
	seed           int64
}{
	{"diurnal-1", "diurnal", 1},
	{"diurnal-2", "diurnal", 2},
	{"diurnal-3", "diurnal", 3},
	{"diurnal-4", "diurnal", 4},
	{"diurnal-week-7", "diurnal-week", 7},
}

func writeFixtures(dir string) error {
	for _, src := range fixtureSources {
		scn, err := tomography.BuildScenario(src.scenario, src.seed)
		if err != nil {
			return err
		}
		doc, err := scn.Topology.MarshalJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, src.name+".json"), append(doc, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("%s: %d paths, %d links\n", src.name, scn.Topology.NumPaths(), scn.Topology.NumLinks())
	}
	return nil
}
