// Checkpoint format versioning and the drift baseline a checkpoint carries.
//
// The checkpoint is a model's one artifact. It starts with a fixed binary
// header: an 8-byte magic ("PYTHCKPT") and a big-endian uint32 format
// version. The header is raw bytes, not gob: a gob stream cannot be probed
// and rewound, so the version must be decidable from a fixed prefix before
// any decoder touches the payload. A reader confronted with a future
// version fails with *UnsupportedVersionError — a typed, inspectable "this
// binary is too old", distinct from corruption — instead of surfacing a
// baffling gob decode error from halfway into a payload it was never meant
// to understand.
//
// The checkpoint also carries the model's drift baseline (SetDriftBaseline),
// so no crash between two saves can pair a model with another training's.
package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"slices"

	"github.com/sematype/pythagoras/internal/lm"
	"github.com/sematype/pythagoras/internal/obs"
	"github.com/sematype/pythagoras/internal/table"
)

// checkpointMagic identifies a Pythagoras checkpoint; it doubles as a cheap
// "is this even one of ours" check before the version is trusted.
const checkpointMagic = "PYTHCKPT"

// CheckpointVersion is the current checkpoint format version. History:
//
//	1 — first versioned format: header + gob(savedMeta) + gob(params).
//	    Pre-versioning checkpoints (no header) are rejected; retrain or
//	    re-save with this binary.
//	2 — savedMeta records the frozen encoder's whole lm.Config, not just
//	    its width, and Load builds the encoder from it. Version-1 files
//	    still load, but only with a supplied encoder of their width.
//	    Later, without a version bump, savedMeta gained the optional
//	    Drift* fields, the drift baseline that used to be a separate file
//	    next to the checkpoint. An older binary skips them and serves
//	    without drift telemetry; a file written before them loads with an
//	    empty baseline, so it serves without drift telemetry until
//	    retrained. The old separate baseline file is not read.
const CheckpointVersion uint32 = 2

// UnsupportedVersionError reports a checkpoint written by a newer format
// than this binary understands. Callers can errors.As on it to tell "too
// new" apart from "corrupt".
type UnsupportedVersionError struct {
	Got uint32
	Max uint32
}

func (e *UnsupportedVersionError) Error() string {
	return fmt.Sprintf("core: checkpoint format version %d is newer than this binary supports (max %d)",
		e.Got, e.Max)
}

// EncoderMismatchError reports a supplied encoder whose config differs
// from the one the checkpoint was trained with: the model's weights mean
// nothing on top of another frozen encoder, even one of the same width.
type EncoderMismatchError struct {
	Saved    lm.Config
	Supplied lm.Config
}

func (e *EncoderMismatchError) Error() string {
	return fmt.Sprintf("core: checkpoint was trained with encoder %+v, supplied encoder is %+v", e.Saved, e.Supplied)
}

// writeHeader writes the magic + version prefix.
func writeHeader(w io.Writer, version uint32) error {
	var hdr [len(checkpointMagic) + 4]byte
	copy(hdr[:], checkpointMagic)
	binary.BigEndian.PutUint32(hdr[len(checkpointMagic):], version)
	_, err := w.Write(hdr[:])
	return err
}

// readHeader consumes and validates the magic + version prefix.
func readHeader(r io.Reader, maxVersion uint32) (uint32, error) {
	var hdr [len(checkpointMagic) + 4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("core: read checkpoint header: %w", err)
	}
	if string(hdr[:len(checkpointMagic)]) != checkpointMagic {
		return 0, fmt.Errorf("core: not a pythagoras checkpoint (bad magic %q)", hdr[:len(checkpointMagic)])
	}
	v := binary.BigEndian.Uint32(hdr[len(checkpointMagic):])
	if v == 0 {
		return 0, fmt.Errorf("core: checkpoint declares version 0 (corrupt header)")
	}
	if v > maxVersion {
		return 0, &UnsupportedVersionError{Got: v, Max: maxVersion}
	}
	return v, nil
}

// --- drift baseline ---

// ComputeDriftBaseline runs the trained model over its own training tables
// and tallies the predicted-type distribution and confidence histogram —
// the reference a serving-time obs.DriftMonitor compares live traffic
// against. Using the model's *predictions* (not the labels) is deliberate:
// drift is measured between two prediction distributions, so the baseline
// is produced by the call that produces the serving side, PredictBatch, on
// one worker per CPU. It has no side effect; SetDriftBaseline attaches the
// result.
func (m *Model) ComputeDriftBaseline(tables []*table.Table) obs.DriftBaseline {
	b := obs.DriftBaseline{
		TypeCounts: map[string]uint64{},
		ConfCounts: make([]uint64, len(obs.ConfidenceBuckets)+1),
	}
	// PredictBatch fails only on a cancelled context or an armed fault, and
	// here there is neither.
	_ = m.PredictBatch(context.TODO(), runtime.NumCPU(), tables, StageHooks{}, func(_ int, preds []ColumnPrediction) {
		for _, cp := range preds {
			b.TypeCounts[cp.Type]++
			b.ConfCounts[obs.ConfidenceBucket(cp.Confidence)]++
		}
	})
	return b
}

// SetDriftBaseline attaches the drift baseline the model's checkpoint
// carries: Save persists it and Load restores it. Set it before the model
// serves.
func (m *Model) SetDriftBaseline(b obs.DriftBaseline) { m.drift = b }

// DriftBaseline returns the model's drift baseline. It is empty, so
// obs.NewDriftMonitor returns nil for it, when none was set — including
// for a model loaded from a checkpoint written before checkpoints carried
// one.
func (m *Model) DriftBaseline() obs.DriftBaseline { return m.drift }

// putDrift stores b in meta's wire form. The type counts become a slice
// aligned with meta.Types, not a map: gob encodes maps in random order,
// and a model must save to the same bytes every time.
func putDrift(meta *savedMeta, b obs.DriftBaseline, labelIndex map[string]int) error {
	if len(b.TypeCounts) > 0 {
		meta.DriftTypeCounts = make([]uint64, len(meta.Types))
		for name, c := range b.TypeCounts {
			i, ok := labelIndex[name]
			if !ok {
				return fmt.Errorf("core: drift baseline type %q is not in the model's vocabulary", name)
			}
			meta.DriftTypeCounts[i] = c
		}
	}
	// The bounds are always obs.ConfidenceBuckets. They are still written,
	// so older binaries, which read the bounds from the file, load it.
	if len(b.ConfCounts) > 0 {
		meta.DriftConfBounds = obs.ConfidenceBuckets
	}
	meta.DriftConfCounts = b.ConfCounts
	return validateDrift(meta)
}

// getDrift rebuilds the baseline putDrift stored. The map holds the nonzero
// counts, exactly the map ComputeDriftBaseline returns.
func getDrift(meta *savedMeta) obs.DriftBaseline {
	b := obs.DriftBaseline{ConfCounts: meta.DriftConfCounts}
	if len(meta.DriftTypeCounts) > 0 || len(meta.DriftConfCounts) > 0 {
		b.TypeCounts = map[string]uint64{}
	}
	for i, c := range meta.DriftTypeCounts {
		if c > 0 {
			b.TypeCounts[meta.Types[i]] = c
		}
	}
	return b
}

// validateDrift rejects a stored baseline whose shape obs.DriftMonitor
// cannot score against: counts not aligned with the vocabulary, confidence
// bounds other than obs.ConfidenceBuckets, or a histogram not sized to
// them. It also rejects type counts whose sum overflows uint64: Total would
// wrap, and a sum of exactly 2^64 would read as no baseline at all.
func validateDrift(meta *savedMeta) error {
	if n := len(meta.DriftTypeCounts); n != 0 && n != len(meta.Types) {
		return fmt.Errorf("core: checkpoint drift baseline has %d type counts for %d types", n, len(meta.Types))
	}
	var total, carry uint64
	for _, c := range meta.DriftTypeCounts {
		if total, carry = bits.Add64(total, c, 0); carry != 0 {
			return fmt.Errorf("core: checkpoint drift baseline type counts overflow uint64")
		}
	}
	nb, nc := len(meta.DriftConfBounds), len(meta.DriftConfCounts)
	if nb == 0 && nc == 0 {
		return nil
	}
	if !slices.Equal(meta.DriftConfBounds, obs.ConfidenceBuckets) {
		return fmt.Errorf("core: checkpoint drift baseline confidence bounds are not obs.ConfidenceBuckets")
	}
	if nc != nb+1 {
		return fmt.Errorf("core: checkpoint drift baseline has %d confidence counts for %d bounds", nc, nb)
	}
	return nil
}
