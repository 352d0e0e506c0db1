package obs

import (
	"context"
	"testing"
)

func TestSpanParentChildPaths(t *testing.T) {
	r := NewRegistry()
	ctx := WithRegistry(context.Background(), r)

	ctx, root := StartSpan(ctx, "predict")
	cctx, child := StartSpan(ctx, "encode")
	if child.Parent() != root {
		t.Fatal("child span not linked to parent")
	}
	if child.Path() != "predict.encode" || root.Path() != "predict" {
		t.Fatalf("paths = %q / %q", root.Path(), child.Path())
	}
	_, grand := StartSpan(cctx, "tokens")
	if grand.Path() != "predict.encode.tokens" {
		t.Fatalf("grandchild path = %q", grand.Path())
	}
	if got, _ := cctx.Value(spanKey).(*Span); got != child {
		t.Fatal("context does not carry the started span")
	}

	grand.End()
	child.End()
	if d := root.End(); d <= 0 {
		t.Fatalf("root duration = %v", d)
	}

	s := r.Snapshot()
	for _, name := range []string{"span.predict", "span.predict.encode", "span.predict.encode.tokens"} {
		if s.Histograms[name].Count != 1 {
			t.Fatalf("histogram %q count = %d, want 1 (have %v)", name, s.Histograms[name].Count, s.Histograms)
		}
	}
}

// TestSpanWithoutRegistry: spans must be usable (and silent) with no
// registry on the context — the no-sink-attached path.
func TestSpanWithoutRegistry(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "orphan")
	if got, _ := ctx.Value(spanKey).(*Span); sp == nil || got != sp {
		t.Fatal("span not created without registry")
	}
	if sp.End() < 0 {
		t.Fatal("End on registry-less span")
	}
	if RegistryFrom(ctx) != nil {
		t.Fatal("phantom registry")
	}
}

func TestWithRegistryNil(t *testing.T) {
	ctx := WithRegistry(context.Background(), nil)
	if RegistryFrom(ctx) != nil {
		t.Fatal("nil registry should not be attached")
	}
}
