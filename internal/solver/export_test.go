package solver

// QueryKey exposes the canonical cache-key rendering to the external
// differential tests.
var QueryKey = queryKey
