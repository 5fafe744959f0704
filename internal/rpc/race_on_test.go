//go:build race

package rpc

// raceEnabled skips allocation gates under the race detector, which
// deliberately bypasses sync.Pool caching and so allocates where
// production builds do not.
const raceEnabled = true
