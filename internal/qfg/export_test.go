package qfg

// AssertSnapshotsBitIdentical is shared with the external qfg_test package.
var AssertSnapshotsBitIdentical = assertSnapshotsBitIdentical
