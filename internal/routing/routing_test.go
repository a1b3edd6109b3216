package routing

import (
	"testing"
	"testing/quick"
)

func TestNodeIDValidity(t *testing.T) {
	if None.IsValid() {
		t.Fatal("None must be invalid")
	}
	if !NodeID(1).IsValid() {
		t.Fatal("1 must be valid")
	}
	if got := None.String(); got != "N-" {
		t.Fatalf("None.String() = %q", got)
	}
	if got := NodeID(17).String(); got != "N17" {
		t.Fatalf("NodeID(17).String() = %q", got)
	}
}

func TestLinkBasics(t *testing.T) {
	l := Link{From: 1, To: 2}
	if !l.IsValid() {
		t.Fatal("1->2 must be valid")
	}
	if l.Reverse() != (Link{From: 2, To: 1}) {
		t.Fatalf("Reverse = %v", l.Reverse())
	}
	if (Link{From: 1, To: 1}).IsValid() {
		t.Fatal("self-loop must be invalid")
	}
	if (Link{From: None, To: 2}).IsValid() {
		t.Fatal("link from None must be invalid")
	}
	if got := l.String(); got != "N1->N2" {
		t.Fatalf("String = %q", got)
	}
}

func TestPathEndpoints(t *testing.T) {
	var empty Path
	if empty.Source() != None || empty.Dest() != None || empty.Len() != 0 {
		t.Fatal("empty path endpoints must be None with zero length")
	}
	p := Path{1, 2, 3}
	if p.Source() != 1 || p.Dest() != 3 || p.Len() != 2 {
		t.Fatalf("endpoints of %v wrong", p)
	}
	single := Path{5}
	if single.Len() != 0 || single.Source() != 5 || single.Dest() != 5 {
		t.Fatal("single-node path must have zero links")
	}
}

func TestPathQueries(t *testing.T) {
	p := Path{1, 2, 3, 4}
	if !p.Contains(3) || p.Contains(9) {
		t.Fatal("Contains broken")
	}
	if p.NextHop(2) != 3 {
		t.Fatalf("NextHop(2) = %v", p.NextHop(2))
	}
	if p.NextHop(4) != None {
		t.Fatal("NextHop of destination must be None")
	}
	if p.NextHop(9) != None {
		t.Fatal("NextHop of absent node must be None")
	}
}

func TestPathLinks(t *testing.T) {
	p := Path{1, 2, 3}
	links := p.Links()
	want := []Link{{From: 1, To: 2}, {From: 2, To: 3}}
	if len(links) != len(want) || links[0] != want[0] || links[1] != want[1] {
		t.Fatalf("Links = %v, want %v", links, want)
	}
	if (Path{1}).Links() != nil {
		t.Fatal("single-node path has no links")
	}
}

func TestPathLoopDetection(t *testing.T) {
	if (Path{1, 2, 3}).HasLoop() {
		t.Fatal("simple path must not report a loop")
	}
	if !(Path{1, 2, 1}).HasLoop() {
		t.Fatal("revisiting path must report a loop")
	}
}

func TestPathCloneEqualPrepend(t *testing.T) {
	p := Path{2, 3}
	q := p.Clone()
	q[0] = 9
	if p[0] != 2 {
		t.Fatal("Clone must not share storage")
	}
	if !p.Equal(Path{2, 3}) || p.Equal(Path{2}) || p.Equal(Path{2, 4}) {
		t.Fatal("Equal broken")
	}
	var nilPath Path
	if nilPath.Clone() != nil {
		t.Fatal("Clone of nil must be nil")
	}
	pre := p.Prepend(1)
	if !pre.Equal(Path{1, 2, 3}) {
		t.Fatalf("Prepend = %v", pre)
	}
	if !p.Equal(Path{2, 3}) {
		t.Fatal("Prepend must not mutate the original")
	}
}

func TestPathString(t *testing.T) {
	if got := (Path{}).String(); got != "<>" {
		t.Fatalf("empty path String = %q", got)
	}
	if got := (Path{1, 2}).String(); got != "<N1,N2>" {
		t.Fatalf("String = %q", got)
	}
}

func TestPathPrependProperty(t *testing.T) {
	f := func(nodes []uint32, head uint32) bool {
		p := make(Path, 0, len(nodes))
		for _, n := range nodes {
			p = append(p, NodeID(n%1000+1))
		}
		pre := p.Prepend(NodeID(head%1000 + 1))
		if len(pre) != len(p)+1 {
			return false
		}
		for i := range p {
			if pre[i+1] != p[i] {
				return false
			}
		}
		return pre[0] == NodeID(head%1000+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
