package core

// The bit-serial oracle, for the codec tests of the external test package.
var (
	SerialRead  = serialRead
	SerialWrite = serialWrite
)
