// The benchmark is a module of its own so the repository's tier-1
// `go build ./... && go test ./...` neither builds nor runs it. The
// module path stays under centaur/ so it may import centaur/internal/*.
module centaur/benchmark

go 1.22

require centaur v0.0.0

replace centaur => ../
