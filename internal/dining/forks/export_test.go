package forks

// IsSync reports whether payload is a restarted diner's sync query.
func IsSync(payload any) bool {
	_, ok := payload.(syncMsg)
	return ok
}

// IsFork reports whether payload is a fork.
func IsFork(payload any) bool {
	_, ok := payload.(forkMsg)
	return ok
}

// IsHunger reports whether payload is a fair table's hunger announcement.
func IsHunger(payload any) bool {
	_, ok := payload.(hungerMsg)
	return ok
}
