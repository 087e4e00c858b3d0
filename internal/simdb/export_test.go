package simdb

// SharedTestDB gives the external test package the memoized 4-core test
// database.
var SharedTestDB = testDB
