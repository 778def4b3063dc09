package rt

// Len is the number of actions in the set.
func (s *Actions) Len() int { return len(s.list) }

// Cursor is the slot Step scans from next, in [0, Len()].
func (s *Actions) Cursor() int { return s.rot }
