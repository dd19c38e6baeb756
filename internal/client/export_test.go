package client

// Parked reports how many issuers are parked on a full window.
func (c *Client) Parked() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.parked
}
