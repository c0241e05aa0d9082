package tog

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// visitString renders one visit as "id{var=val,...}" with the bindings
// sorted by name.
func visitString(n *Node, vars map[string]int64) string {
	var kv []string
	for v, val := range vars {
		kv = append(kv, fmt.Sprintf("%s=%d", v, val))
	}
	sort.Strings(kv)
	return fmt.Sprintf("%d{%s}", n.ID, strings.Join(kv, ","))
}

func TestWalk(t *testing.T) {
	errStop := errors.New("stop")
	loop := func(id int, v string, init, limit, step int64) Node {
		return Node{ID: id, Kind: LoopBegin, Var: v, Init: init, Limit: limit, Step: step}
	}
	end := func(id int) Node { return Node{ID: id, Kind: LoopEnd} }
	node := func(id int, k Kind) Node { return Node{ID: id, Kind: k} }

	cases := []struct {
		name  string
		nodes []Node
		// stopAt makes the visitor fail on this visit string.
		stopAt  string
		want    []string
		wantErr string
	}{
		{
			name: "nested loops",
			nodes: []Node{
				loop(0, "i", 0, 2, 1),
				node(1, Compute),
				loop(2, "j", 0, 3, 2),
				node(3, LoadDMA),
				node(4, WaitDMA),
				end(5),
				node(6, StoreDMA),
				end(7),
				node(8, AllReduce),
			},
			want: []string{
				"1{i=0}", "3{i=0,j=0}", "4{i=0,j=0}", "3{i=0,j=2}", "4{i=0,j=2}", "6{i=0}",
				"1{i=1}", "3{i=1,j=0}", "4{i=1,j=0}", "3{i=1,j=2}", "4{i=1,j=2}", "6{i=1}",
				"8{}",
			},
		},
		{
			name: "zero-trip loop",
			nodes: []Node{
				node(0, Compute),
				loop(1, "i", 3, 3, 1),
				node(2, Compute),
				loop(3, "j", 0, 2, 1),
				node(4, Compute),
				end(5),
				end(6),
				node(7, Compute),
			},
			want: []string{"0{}", "7{}"},
		},
		{
			name: "loop variable gone after its loop",
			nodes: []Node{
				loop(0, "i", 0, 1, 1),
				node(1, Compute),
				end(2),
				node(3, WaitDMA),
				loop(4, "j", 5, 6, 1),
				node(5, Compute),
				end(6),
			},
			want: []string{"1{i=0}", "3{}", "5{j=5}"},
		},
		{
			name: "unmatched loopBegin",
			nodes: []Node{
				node(0, Compute),
				loop(1, "i", 0, 2, 1),
				node(2, Compute),
			},
			want:    []string{"0{}"},
			wantErr: "unmatched loopBegin at node 1",
		},
		{
			name: "visitor error stops the walk",
			nodes: []Node{
				loop(0, "i", 0, 4, 1),
				node(1, Compute),
				end(2),
				node(3, Compute),
			},
			stopAt:  "1{i=1}",
			want:    []string{"1{i=0}", "1{i=1}"},
			wantErr: errStop.Error(),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := &TOG{Nodes: tc.nodes}
			var got []string
			err := g.Walk(func(n *Node, vars map[string]int64) error {
				s := visitString(n, vars)
				got = append(got, s)
				if s == tc.stopAt {
					return errStop
				}
				return nil
			})
			if tc.wantErr == "" && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("error = %v, want one containing %q", err, tc.wantErr)
			}
			if tc.stopAt != "" && !errors.Is(err, errStop) {
				t.Fatalf("visitor error not returned as is: %v", err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("visits:\n got %v\nwant %v", got, tc.want)
			}
		})
	}
}

func TestMatchEnd(t *testing.T) {
	g := simpleGEMMTOG(t, 2, 10)
	if end, err := g.MatchEnd(0); err != nil || end != len(g.Nodes)-1 {
		t.Fatalf("MatchEnd(0) = %d, %v; want %d", end, err, len(g.Nodes)-1)
	}
}
