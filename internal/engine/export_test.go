package engine

// DisableDiscardRules turns the top-1 and flatten-bound rules off on e
// (Engine.noDiscardRules) for the external differential tests; call it
// before e's first query.
func DisableDiscardRules(e *Engine) { e.noDiscardRules = true }
