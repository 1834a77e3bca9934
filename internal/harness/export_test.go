package harness

// FailureCount returns how many failures this rank recorded.
func (c *Ctx) FailureCount() int { return len(c.failures) }
