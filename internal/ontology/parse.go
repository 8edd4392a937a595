package ontology

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// The textual ontology format is an indented tree, two spaces per level,
// with optional labels and flags:
//
//	# comment
//	ontology mygrid
//	BioinformaticsData : Bioinformatics data
//	  BiologicalSequence
//	    NucleotideSequence *abstract
//	      DNASequence : DNA sequence
//	      RNASequence
//	    ProteinSequence
//	subsume ProteinRecord BiologicalRecord
//
// A line "subsume CHILD PARENT" adds an extra DAG edge after the tree is
// built. A trailing "*abstract" marks the concept abstract.

// Parse reads an ontology from the textual format.
func Parse(r io.Reader) (*Ontology, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	o := New("ontology")
	var stack []string // stack[d] = concept at depth d
	lineNo := 0
	var extraEdges [][2]string
	for sc.Scan() {
		lineNo++
		raw := sc.Text()
		line := strings.TrimRight(raw, " \t")
		trimmed := strings.TrimLeft(line, " ")
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		if strings.HasPrefix(trimmed, "ontology ") {
			o.name = strings.TrimSpace(strings.TrimPrefix(trimmed, "ontology "))
			continue
		}
		if strings.HasPrefix(trimmed, "subsume ") {
			parts := strings.Fields(trimmed)
			if len(parts) != 3 {
				return nil, fmt.Errorf("ontology parse: line %d: subsume needs CHILD PARENT", lineNo)
			}
			extraEdges = append(extraEdges, [2]string{parts[1], parts[2]})
			continue
		}
		indent := len(line) - len(trimmed)
		if strings.HasPrefix(trimmed, "\t") {
			return nil, fmt.Errorf("ontology parse: line %d: tab indentation is not supported", lineNo)
		}
		if indent%2 != 0 {
			return nil, fmt.Errorf("ontology parse: line %d: odd indentation %d", lineNo, indent)
		}
		depth := indent / 2
		if depth > len(stack) {
			return nil, fmt.Errorf("ontology parse: line %d: indentation jumps from %d to %d", lineNo, len(stack), depth)
		}
		id, label, abstract, err := parseConceptLine(trimmed)
		if err != nil {
			return nil, fmt.Errorf("ontology parse: line %d: %w", lineNo, err)
		}
		var parents []string
		if depth > 0 {
			parents = []string{stack[depth-1]}
		}
		if err := o.AddConcept(id, label, parents...); err != nil {
			return nil, fmt.Errorf("ontology parse: line %d: %w", lineNo, err)
		}
		if abstract {
			if err := o.MarkAbstract(id); err != nil {
				return nil, fmt.Errorf("ontology parse: line %d: %w", lineNo, err)
			}
		}
		stack = append(stack[:depth], id)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ontology parse: %w", err)
	}
	for _, e := range extraEdges {
		if err := o.AddSubsumption(e[0], e[1]); err != nil {
			return nil, fmt.Errorf("ontology parse: %w", err)
		}
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return o, nil
}

// parseConceptLine splits "ID [: label] [*abstract]". The flag counts
// only at the end of the line, and a label may not itself end in
// "*abstract": Write could not tell such a label from the flag.
func parseConceptLine(s string) (id, label string, abstract bool, err error) {
	s, abstract = strings.CutSuffix(s, " *abstract")
	if i := strings.Index(s, ":"); i >= 0 {
		id = strings.TrimSpace(s[:i])
		label = strings.TrimSpace(s[i+1:])
	} else {
		id = strings.TrimSpace(s)
	}
	if id == "" || strings.ContainsAny(id, " \t") || strings.HasSuffix(label, "*abstract") {
		return "", "", false, fmt.Errorf("bad concept line %q", s)
	}
	return id, label, abstract, nil
}

// ParseString is Parse over an in-memory document.
func ParseString(s string) (*Ontology, error) {
	return Parse(strings.NewReader(s))
}

// Write serialises the ontology in the textual format accepted by Parse.
// Concepts reachable through several parents are emitted once under their
// first parent (in insertion order) and once as a "subsume" directive per
// extra parent.
func (o *Ontology) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "ontology %s\n", o.name)
	emitted := map[string]bool{}
	var extra [][2]string
	var emit func(id string, depth int)
	emit = func(id string, depth int) {
		c := o.concepts[id]
		fmt.Fprintf(bw, "%s%s", strings.Repeat("  ", depth), id)
		if c.Label != "" {
			fmt.Fprintf(bw, " : %s", c.Label)
		}
		if c.Abstract {
			fmt.Fprint(bw, " *abstract")
		}
		fmt.Fprintln(bw)
		emitted[id] = true
		for _, chID := range o.childOrder(c) {
			ch := o.concepts[chID]
			if emitted[chID] {
				continue
			}
			// A node is emitted under the first of its parents that gets
			// written; extra parents become subsume directives.
			primary := o.primaryParent(ch)
			if primary != id {
				continue
			}
			emit(chID, depth+1)
		}
	}
	for _, id := range o.order {
		if len(o.concepts[id].parents) == 0 && !emitted[id] {
			emit(id, 0)
		}
	}
	for _, id := range o.order {
		c := o.concepts[id]
		if len(c.parents) <= 1 {
			continue
		}
		primary := o.primaryParent(c)
		for _, p := range c.parents {
			if p.ID != primary {
				extra = append(extra, [2]string{id, p.ID})
			}
		}
	}
	for _, e := range extra {
		fmt.Fprintf(bw, "subsume %s %s\n", e[0], e[1])
	}
	return bw.Flush()
}

// primaryParent returns the parent under which the concept is printed in
// the tree serialisation: the first parent edge that was added (the tree
// parent, for ontologies built by Parse).
func (o *Ontology) primaryParent(c *Concept) string {
	if len(c.parents) == 0 {
		return ""
	}
	return c.parents[0].ID
}

// childOrder returns the concept's children in insertion order.
func (o *Ontology) childOrder(c *Concept) []string {
	pos := map[string]int{}
	for i, id := range o.order {
		pos[id] = i
	}
	ids := make([]string, len(c.children))
	for i, ch := range c.children {
		ids[i] = ch.ID
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && pos[ids[j]] < pos[ids[j-1]]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

// String renders the ontology in the textual format.
func (o *Ontology) String() string {
	var b strings.Builder
	_ = o.Write(&b)
	return b.String()
}
