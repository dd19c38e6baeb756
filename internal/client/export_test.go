package client

// Parked reports how many issuers are parked on a full window.
func (c *Client) Parked() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.parked
}

// NodeLedger audits the tracking-node freelist: its length, how many
// distinct nodes it holds (a node retired twice appears twice), how
// many listed nodes share a payload array with another, and the window
// slots still held.
func (c *Client) NodeLedger() (free, distinct, sharedData, inflight int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := make(map[*pending]bool)
	arrays := make(map[*byte]bool)
	for _, p := range c.freePend {
		if seen[p] {
			continue
		}
		seen[p] = true
		if cap(p.data) > 0 {
			id := &p.data[:1][0]
			if arrays[id] {
				sharedData++
			}
			arrays[id] = true
		}
	}
	return len(c.freePend), len(seen), sharedData, c.inflight
}
