// Fixture for the ctxbg analyzer: fresh root contexts are forbidden in
// library paths.
package ctxbg

import "context"

func bad() context.Context {
	return context.Background() // want `context\.Background\(\) in a library path detaches cancellation`
}

func alsoBad() context.Context {
	return context.TODO() // want `context\.TODO\(\) in a library path detaches cancellation`
}

func plumbed(ctx context.Context) context.Context {
	return ctx // accepting a context: the point of the rule
}
