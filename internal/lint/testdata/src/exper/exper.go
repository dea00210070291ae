// Package exper is a ctxthread fixture: its package-path base matches a
// blocking package, so both rules apply.
package exper

import "context"

// Grid is a stand-in work description.
type Grid struct{ N int }

// RunContext is the blessed shape: ctx first, threaded downward.
func RunContext(ctx context.Context, g *Grid) error {
	return step(ctx, g.N)
}

// RunLate buries the context mid-signature.
func RunLate(g *Grid, ctx context.Context) error { // want "context.Context must be the first parameter"
	return step(ctx, g.N)
}

// Run mints a root context in library code.
func Run(g *Grid) error {
	return RunContext(context.Background(), g) // want "context.Background\\(\\) in library code"
}

// RunTODO reaches for the placeholder root.
func RunTODO(g *Grid) error {
	return RunContext(context.TODO(), g) // want "context.TODO\\(\\) in library code"
}

// RunDeprecated keeps the old no-context shape alive behind the
// standard marker, which blesses nothing: only an allow comment does.
//
// Deprecated: use RunContext.
func RunDeprecated(g *Grid) error {
	return RunContext(context.Background(), g) // want "context.Background\\(\\) in library code"
}

// NewLifecycleRoot demonstrates the explicit escape hatch for true
// process/server lifecycle roots.
func NewLifecycleRoot() (context.Context, context.CancelFunc) {
	//ehlint:allow ctxbg — this constructor is the lifecycle root; Shutdown cancels it
	return context.WithCancel(context.Background())
}

func step(ctx context.Context, n int) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}
