package sim

import "sort"

// Test files are allowlisted: a test orders its own fixtures, and build
// files cannot call test functions.
func testOrder(rows []row) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
}
