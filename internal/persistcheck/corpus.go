// Replayable reproducers. Every scenario family serializes to a small
// JSON document, so a failure found by a long fuzzing soak can be
// checked into testdata/corpus/ and replayed forever as a regression
// test.
package persistcheck

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Repro families.
const (
	FamilyMemOps     = "memops"
	FamilyKernel     = "kernel"
	FamilyDiffStores = "diff-stores"
	FamilyDiffModels = "diff-models"
	FamilyScrub      = "scrub"
)

// Repro is a self-contained, replayable scenario of any family.
type Repro struct {
	Version int    `json:"version"`
	Family  string `json:"family"`
	// Note is free-form provenance (what the scenario caught, and when).
	Note   string          `json:"note,omitempty"`
	MemOps *MemOpsScenario `json:"memops,omitempty"`
	Kernel *KernelScenario `json:"kernel,omitempty"`
	Scrub  *ScrubScenario  `json:"scrub,omitempty"`
}

const reproVersion = 1

func memopsRepro(sc MemOpsScenario) Repro {
	return Repro{Version: reproVersion, Family: FamilyMemOps, MemOps: &sc}
}

func kernelRepro(sc KernelScenario) Repro {
	return Repro{Version: reproVersion, Family: FamilyKernel, Kernel: &sc}
}

func scrubRepro(sc ScrubScenario) Repro {
	return Repro{Version: reproVersion, Family: FamilyScrub, Scrub: &sc}
}

// RunRepro replays a reproducer, returning the contract violation it
// encodes (nil when the scenario passes — the state of every corpus
// entry once its bug is fixed).
func (c *Checker) RunRepro(r Repro) error {
	switch r.Family {
	case FamilyMemOps:
		if r.MemOps == nil {
			return fmt.Errorf("persistcheck: %s repro has no memops scenario", r.Family)
		}
		return RunMemOps(*r.MemOps)
	case FamilyScrub:
		if r.Scrub == nil {
			return fmt.Errorf("persistcheck: %s repro has no scrub scenario", r.Family)
		}
		return c.RunScrub(*r.Scrub)
	case FamilyKernel, FamilyDiffStores, FamilyDiffModels:
		if r.Kernel == nil {
			return fmt.Errorf("persistcheck: %s repro has no kernel scenario", r.Family)
		}
		switch r.Family {
		case FamilyKernel:
			return c.RunKernel(*r.Kernel)
		case FamilyDiffStores:
			return c.RunDiffStores(*r.Kernel)
		default:
			return c.RunDiffModels(*r.Kernel)
		}
	default:
		return fmt.Errorf("persistcheck: unknown repro family %q", r.Family)
	}
}

// SaveRepro writes a reproducer as indented JSON.
func SaveRepro(path string, r Repro) error {
	if r.Version == 0 {
		r.Version = reproVersion
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadRepro reads one reproducer file. A field the current scenario
// types do not know (such as an old reproducer's "workers") is an error:
// ignoring it would silently replay a different scenario.
func LoadRepro(path string) (Repro, error) {
	var r Repro
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return r, fmt.Errorf("persistcheck: %s: %w", path, err)
	}
	if r.Version != reproVersion {
		return r, fmt.Errorf("persistcheck: %s: unsupported repro version %d", path, r.Version)
	}
	return r, nil
}

// LoadCorpus reads every *.json reproducer in dir, sorted by name.
// A missing directory is an empty corpus, not an error.
func LoadCorpus(dir string) (names []string, repros []Repro, err error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		r, err := LoadRepro(filepath.Join(dir, name))
		if err != nil {
			return names, repros, err
		}
		repros = append(repros, r)
	}
	return names, repros, nil
}
