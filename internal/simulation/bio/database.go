package bio

import (
	"math"
)

// Database is the deterministic synthetic stand-in for the collection of
// public life-science databases (Uniprot, GenBank, KEGG, PDB, ...) behind
// the catalog modules. Entry i is fully derived from i, and every
// accession scheme indexes the same entries, so identifier-mapping modules
// have consistent cross references to translate between.
type Database struct {
	entries []Entry

	byUniprot  map[string]int
	byPIR      map[string]int
	byGenBank  map[string]int
	byEMBL     map[string]int
	byPDB      map[string]int
	byGene     map[string]int
	byKEGGGene map[string]int
	byGlycan   map[string]int
	byLigand   map[string]int
	byCompound map[string]int
}

// DefaultSize is the entry count used by the experiment universe: large
// enough for realistic variety, small enough that O(n·m²) homology scans
// stay fast.
const DefaultSize = 240

// familyCount controls homology: entries with equal index mod familyCount
// are homologous (their sequences share a common prefix region).
const familyCount = 40

// NewDatabase builds a database with n deterministic entries.
func NewDatabase(n int) *Database {
	db := &Database{
		byUniprot:  map[string]int{},
		byPIR:      map[string]int{},
		byGenBank:  map[string]int{},
		byEMBL:     map[string]int{},
		byPDB:      map[string]int{},
		byGene:     map[string]int{},
		byKEGGGene: map[string]int{},
		byGlycan:   map[string]int{},
		byLigand:   map[string]int{},
		byCompound: map[string]int{},
	}
	for i := 0; i < n; i++ {
		e := makeEntry(i)
		db.entries = append(db.entries, e)
		db.byUniprot[e.Accession] = i
		db.byPIR[PIRAccession(i)] = i
		db.byGenBank[GenBankAccession(i)] = i
		db.byEMBL[EMBLAccession(i)] = i
		db.byPDB[PDBAccession(i)] = i
		if _, dup := db.byGene[e.GeneName]; !dup {
			db.byGene[e.GeneName] = i
		}
		db.byKEGGGene[KEGGGeneID(i)] = i
		db.byGlycan[GlycanID(i)] = i
		db.byLigand[LigandID(i)] = i
		db.byCompound[KEGGCompoundID(i)] = i
	}
	return db
}

// makeEntry derives entry i. Homologous entries (same family) share the
// family's DNA prefix, so alignment-based homology search actually finds
// them.
func makeEntry(i int) Entry {
	family := i % familyCount
	// 2/3 family-common prefix + 1/3 individual suffix, multiple of 3.
	common := genSeq(dnaAlphabet, uint64(family)*7777777+13, 48)
	own := genSeq(dnaAlphabet, uint64(i)*2654435761+1, 24+(i*3)%24)
	dna := common + own
	dna = dna[:len(dna)-len(dna)%3]
	protein := Translate(Transcribe(dna))
	if protein == "" {
		// A stop codon right at the start; give the entry a minimal peptide
		// so every entry has a protein product.
		protein = "M"
	}
	gos := []string{GOTerm(i), GOTerm(i + 1000)}
	if i%3 == 0 {
		gos = append(gos, GOTerm(i+2000))
	}
	return Entry{
		Index:     i,
		Accession: UniprotAccession(i),
		GeneName:  GeneName(i),
		Species:   TaxonName(i),
		Protein:   protein,
		DNA:       dna,
		GOTerms:   gos,
		Pathway:   KEGGPathwayID(i % 25),
		Enzyme:    EnzymeID(i % 60),
	}
}

// Len returns the number of entries.
func (db *Database) Len() int { return len(db.entries) }

// ByIndex returns entry i.
func (db *Database) ByIndex(i int) (Entry, bool) {
	if i < 0 || i >= len(db.entries) {
		return Entry{}, false
	}
	return db.entries[i], true
}

// ByUniprot looks an entry up by Uniprot accession.
func (db *Database) ByUniprot(acc string) (Entry, bool) { return db.lookup(db.byUniprot, acc) }

// ByPIR looks an entry up by PIR accession.
func (db *Database) ByPIR(acc string) (Entry, bool) { return db.lookup(db.byPIR, acc) }

// ByGenBank looks an entry up by GenBank accession.
func (db *Database) ByGenBank(acc string) (Entry, bool) { return db.lookup(db.byGenBank, acc) }

// ByEMBL looks an entry up by EMBL accession.
func (db *Database) ByEMBL(acc string) (Entry, bool) { return db.lookup(db.byEMBL, acc) }

// ByPDB looks an entry up by PDB ID.
func (db *Database) ByPDB(acc string) (Entry, bool) { return db.lookup(db.byPDB, acc) }

// ByGeneName looks an entry up by gene symbol.
func (db *Database) ByGeneName(g string) (Entry, bool) { return db.lookup(db.byGene, g) }

// ByKEGGGene looks an entry up by KEGG gene ID.
func (db *Database) ByKEGGGene(g string) (Entry, bool) { return db.lookup(db.byKEGGGene, g) }

// ByGlycan looks an entry up by glycan ID.
func (db *Database) ByGlycan(g string) (Entry, bool) { return db.lookup(db.byGlycan, g) }

// ByLigand looks an entry up by ligand ID.
func (db *Database) ByLigand(l string) (Entry, bool) { return db.lookup(db.byLigand, l) }

// ByCompound looks an entry up by KEGG compound ID.
func (db *Database) ByCompound(c string) (Entry, bool) { return db.lookup(db.byCompound, c) }

func (db *Database) lookup(idx map[string]int, key string) (Entry, bool) {
	i, ok := idx[key]
	if !ok {
		return Entry{}, false
	}
	return db.entries[i], true
}

// ByAnyAccession classifies the accession format and dispatches to the
// matching index.
func (db *Database) ByAnyAccession(acc string) (Entry, bool) {
	switch ClassifyAccession(acc) {
	case "uniprot":
		return db.ByUniprot(acc)
	case "pir":
		return db.ByPIR(acc)
	case "genbank":
		return db.ByGenBank(acc)
	case "embl":
		return db.ByEMBL(acc)
	case "pdb":
		return db.ByPDB(acc)
	case "kegg-gene":
		return db.ByKEGGGene(acc)
	case "glycan":
		return db.ByGlycan(acc)
	case "ligand":
		return db.ByLigand(acc)
	case "kegg-compound":
		return db.ByCompound(acc)
	case "gene":
		return db.ByGeneName(acc)
	default:
		return Entry{}, false
	}
}

// EntriesInPathway returns the entries annotated with the given pathway,
// in index order.
func (db *Database) EntriesInPathway(pathway string) []Entry {
	var out []Entry
	for _, e := range db.entries {
		if e.Pathway == pathway {
			out = append(out, e)
		}
	}
	return out
}

// GenesByEnzyme returns the gene names of entries with the given EC
// number, in index order — the behaviour of the paper's
// get_genes_by_enzyme module.
func (db *Database) GenesByEnzyme(enzyme string) []string {
	var out []string
	for _, e := range db.entries {
		if e.Enzyme == enzyme {
			out = append(out, e.GeneName)
		}
	}
	return out
}

// Family returns the homology family index of entry i.
func (db *Database) Family(i int) int { return i % familyCount }

// Homologs returns the Uniprot accessions of the entries in the same
// homology family as the given entry, excluding the entry itself, in
// index order.
func (db *Database) Homologs(e Entry) []string {
	var out []string
	for _, o := range db.entries {
		if o.Index != e.Index && db.Family(o.Index) == db.Family(e.Index) {
			out = append(out, o.Accession)
		}
	}
	return out
}

// IdentifyByPeptideMasses returns the entry whose tryptic peptide-mass
// fingerprint best matches the given masses within the tolerance
// (percent), i.e. the Figure-1 Identify module. The boolean is false when
// no entry matches any mass.
func (db *Database) IdentifyByPeptideMasses(masses []float64, tolerancePct float64) (Entry, bool) {
	bestIdx, bestCount := -1, 0
	for _, e := range db.entries {
		count := matchCount(PeptideMasses(e.Protein), masses, tolerancePct)
		if count > bestCount {
			bestCount = count
			bestIdx = e.Index
		}
	}
	if bestIdx < 0 {
		return Entry{}, false
	}
	return db.entries[bestIdx], true
}

func matchCount(reference, observed []float64, tolerancePct float64) int {
	count := 0
	for _, m := range observed {
		for _, r := range reference {
			if r == 0 {
				continue
			}
			if math.Abs(m-r)/r*100 <= tolerancePct {
				count++
				break
			}
		}
	}
	return count
}
