package backend

// The RE driver: run-length-compressed register file, entanglement up to
// qat.MaxREWays. Its canonical geometry is the only place the RE defaults
// are applied, so every spelling of the defaults shares pool and memo
// identity.

import (
	"fmt"

	"tangled/internal/aob"
	"tangled/internal/qat"
)

func init() { Register(reDriver{}) }

type reDriver struct{}

func (reDriver) Name() string { return qat.BackendRE }

func (reDriver) MaxWays() int { return qat.MaxREWays }

func (reDriver) Canonicalize(cfg qat.Config) (qat.Config, error) {
	cfg.Backend = qat.BackendRE
	if cfg.Ways == 0 {
		cfg.Ways = aob.MaxWays
	}
	if cfg.Ways < 0 || cfg.Ways > qat.MaxREWays {
		return cfg, fmt.Errorf("backend: re ways %d out of range [0,%d]", cfg.Ways, qat.MaxREWays)
	}
	if cfg.ChunkWays == 0 {
		cfg.ChunkWays = cfg.Ways
		if cfg.ChunkWays > aob.MaxWays {
			cfg.ChunkWays = aob.MaxWays
		}
	}
	if cfg.ChunkWays < 0 || cfg.ChunkWays > aob.MaxWays || cfg.ChunkWays > cfg.Ways {
		return cfg, fmt.Errorf("backend: re chunk ways %d out of range [0,min(%d,ways)]",
			cfg.ChunkWays, aob.MaxWays)
	}
	if cfg.SpillRuns == 0 {
		cfg.SpillRuns = qat.DefaultSpillRuns
	}
	if cfg.Ways > aob.MaxWays || cfg.SpillRuns < 0 {
		cfg.SpillRuns = -1 // no dense form exists to spill into
	}
	return cfg, nil
}

func (reDriver) New(cfg qat.Config) (*qat.Coprocessor, error) {
	return qat.NewFromConfig(cfg)
}
