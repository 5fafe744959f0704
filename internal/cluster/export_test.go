package cluster

// Pending reports how many of the client's calls are awaiting a reply, so
// tests can check that no pending entry outlives its call.
func (c *Client) Pending() int { return c.mux.Pending() }
