package buildtags

func osName() string { return "plan9" }
