package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestErrorStage(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{&InternalError{Stage: "restructure", Value: "boom"}, "restructure"},
		{fmt.Errorf("wrapped: %w", &InternalError{Stage: "apply", Value: "x"}), "apply"},
		{fmt.Errorf("parse: %w", errors.New("3:1: unexpected token")), "parse"},
		{fmt.Errorf("check: %w", errors.New("undefined: x")), "check"},
		{fmt.Errorf("layout: %w", errors.New("bad align")), "layout"},
		{errors.New("something else entirely"), ""},
	}
	for _, c := range cases {
		if got := ErrorStage(c.err); got != c.want {
			t.Errorf("ErrorStage(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// TestErrorStageFromPipeline pins the integration: a source that
// fails to parse reports stage "parse" through the real pipeline.
func TestErrorStageFromPipeline(t *testing.T) {
	_, err := CompileCtx(context.Background(), "shared int x[", Options{Nprocs: 2, BlockSize: 32})
	if err == nil {
		t.Fatal("malformed source compiled")
	}
	if got := ErrorStage(err); got != "parse" {
		t.Errorf("ErrorStage = %q (err=%v), want parse", got, err)
	}
}
