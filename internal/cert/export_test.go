package cert

import "fmt"

// Set builds a RoleSet from role names.
func (m *RoleMap) Set(roles ...string) (RoleSet, error) {
	var s RoleSet
	for _, r := range roles {
		b, ok := m.bits[r]
		if !ok {
			return 0, fmt.Errorf("cert: unknown role %q", r)
		}
		s = s.With(b)
	}
	return s, nil
}
