package buildtags

func body() int { return 64 }
