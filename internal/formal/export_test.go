package formal

// Fixture sources shared with the external test package.
const (
	AccAdd      = accAdd
	AccSub      = accSub
	ModSaturate = modSaturate
)
