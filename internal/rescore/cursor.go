// The durable scan cursor. A re-score over a big lake can outlive its
// process — deploys roll, machines die — so progress is checkpointed after
// every committed batch: the frozen scan snapshot (sorted table IDs), the
// completed-prefix position, and the refs the completed prefix produced.
// Restart loads the checkpoint, replays the prefix refs into a fresh shadow
// index, and resumes scoring at the cursor — no table is scored twice, and
// the finished index is bit-identical to an uninterrupted run's (per-table
// predictions are deterministic, so only *whether* work repeats could
// differ, never its result).
//
// The format is versioned JSON written atomically (temp file + rename in
// the destination directory, fsynced before the rename): a torn write
// leaves the previous checkpoint intact, and a bumped CheckpointVersion
// makes an old binary reject a new cursor loudly instead of misreading it.
package rescore

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/sematype/pythagoras/internal/atomicfile"
	"github.com/sematype/pythagoras/internal/discovery"
)

// CheckpointVersion is the cursor wire-format version this build reads and
// writes. Decoding any other version fails with a clear error.
const CheckpointVersion = 1

// Checkpoint is the durable state of one re-score run.
type Checkpoint struct {
	// Version pins the format; see CheckpointVersion.
	Version int `json:"version"`
	// ModelID names the model doing the re-score. A checkpoint written by a
	// different model never resumes — its prefix refs are that model's view.
	ModelID string `json:"model_id"`
	// IDs is the frozen scan snapshot: the lake's sorted table IDs at the
	// instant the run started. Tables added later are dual-written by the
	// SwapIndex, not scanned.
	IDs []string `json:"ids"`
	// Pos is the durable cursor: IDs[:Pos] have been scored and their refs
	// recorded below.
	Pos int `json:"pos"`
	// Refs holds, for each completed table that was still present when
	// scored, the column refs the re-score installed. Replayed on resume.
	Refs map[string][]discovery.ColumnRef `json:"refs"`
}

// Validate checks structural invariants after a decode. It never panics on
// adversarial input — the fuzz target's contract.
func (c *Checkpoint) Validate() error {
	if c.Version != CheckpointVersion {
		return fmt.Errorf("rescore: checkpoint version %d, want %d", c.Version, CheckpointVersion)
	}
	if c.Pos < 0 || c.Pos > len(c.IDs) {
		return fmt.Errorf("rescore: cursor position %d outside scan snapshot of %d tables", c.Pos, len(c.IDs))
	}
	seen := make(map[string]struct{}, len(c.IDs))
	for i, id := range c.IDs {
		if id == "" {
			return fmt.Errorf("rescore: empty table ID at snapshot position %d", i)
		}
		if _, dup := seen[id]; dup {
			return fmt.Errorf("rescore: duplicate table ID %q in scan snapshot", id)
		}
		seen[id] = struct{}{}
	}
	done := make(map[string]struct{}, c.Pos)
	for _, id := range c.IDs[:c.Pos] {
		done[id] = struct{}{}
	}
	for id, refs := range c.Refs {
		if _, ok := done[id]; !ok {
			return fmt.Errorf("rescore: checkpoint carries refs for %q beyond the cursor", id)
		}
		for _, r := range refs {
			if r.TableID != id {
				return fmt.Errorf("rescore: ref for table %q claims table %q", id, r.TableID)
			}
		}
	}
	return nil
}

// DecodeCheckpoint parses and validates a serialized cursor. Corrupt,
// truncated, or wrong-version input returns an error, never a panic or a
// silently half-read cursor.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("rescore: decode checkpoint: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// LoadCheckpoint reads and decodes a cursor file. A missing file returns
// os.ErrNotExist (wrapped) — the caller's signal to start fresh.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("rescore: read checkpoint: %w", err)
	}
	return DecodeCheckpoint(data)
}

// Save writes the cursor durably through atomicfile.Write: a crash at any
// instant leaves either the old checkpoint or the new one — never a torn
// file.
func (c *Checkpoint) Save(path string) error {
	if err := c.Validate(); err != nil {
		return err
	}
	data, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("rescore: encode checkpoint: %w", err)
	}
	err = atomicfile.Write(path, 0o600, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("rescore: write checkpoint: %w", err)
	}
	return nil
}
