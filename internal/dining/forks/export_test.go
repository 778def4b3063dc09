package forks

// IsSync reports whether payload is a restarted diner's sync query.
func IsSync(payload any) bool {
	_, ok := payload.(syncMsg)
	return ok
}
