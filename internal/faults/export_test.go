package faults

import "repro/internal/storage"

// KillPointHits returns how many times a point has been hit since arming
// (always 0 before the first armKillPoints — unarmed processes do not
// count).
func KillPointHits(point string) int {
	kill.mu.Lock()
	defer kill.mu.Unlock()
	return kill.hits[point]
}

// ResetKillPoints disarms every kill point and zeroes the hit counts (test
// support).
func ResetKillPoints() {
	kill.mu.Lock()
	kill.armed, kill.hits = nil, nil
	kill.mu.Unlock()
	storage.SetKillPointHook(nil)
}
