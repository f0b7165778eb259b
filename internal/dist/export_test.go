package dist

// ActiveLeases reports the leases in flight, for tests that check
// placement never over-commits a worker.
func ActiveLeases(c *Coordinator) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.leases)
}
